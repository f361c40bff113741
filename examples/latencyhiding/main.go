// Latency hiding: the paper's Prefetch micro-benchmark as a runnable
// comparison of four ways to read 20 remote doubles, now written on the
// typed v2 + collectives surface —
//
//  1. blocking Dist.Get reads (no overlap),
//  2. parfor prefetching over Dist.Get (overlap bought with a thread per
//     element — the paper's CC++ strategy),
//  3. split-phase Dist.GetAsync with typed futures (overlap without the
//     thread-per-element tax),
//  4. Split-C split-phase gets (the SPMD baseline).
//
// The output shows why the paper concludes that "the overhead of thread
// management reduces the effectiveness of latency hiding substantially" in
// the MPMD runtime — and how split-phase access, now first-class and typed
// on the MPMD side too (Dist.GetAsync), pipelines the same traffic without
// spawning threads.
//
// Run with: go run ./examples/latencyhiding [-backend=sim|live]
// (sim compares calibrated virtual times; live compares wall-clock)
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/mpmd"
)

const n = 20

var backend string

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func newMachine(nodes int) *mpmd.Machine {
	switch backend {
	case "sim":
		return mpmd.NewMachine(mpmd.SPConfig(), nodes)
	case "live":
		return mpmd.NewLiveMachine(mpmd.SPConfig(), nodes)
	default:
		log.Fatalf("unknown backend %q (want sim or live)", backend)
		return nil
	}
}

// distRig builds a 2-node machine with a cyclic Dist whose odd elements —
// all the ones node 0 reads — live on node 1, pre-filled by the owner.
func distRig() (*mpmd.Machine, *mpmd.Runtime, *mpmd.Dist[float64]) {
	m := newMachine(2)
	rt := mpmd.NewRuntime(m)
	tm, err := mpmd.WorldTeam(rt)
	must(err)
	d, err := mpmd.NewDist[float64](tm, 2*n, mpmd.LayoutCyclic)
	must(err)
	rt.OnNode(1, func(t *mpmd.Thread) {
		must(d.ForEachLocal(t, func(i int, v *float64) { *v = float64(i) * 1.5 }))
		must(tm.Barrier(t))
		must(tm.Barrier(t)) // reader signals completion
	})
	return m, rt, d
}

// measure runs body on node 0 between the data-ready and done barriers and
// returns its elapsed time plus the checksum of what it read.
func measure(body func(t *mpmd.Thread, d *mpmd.Dist[float64], local []float64)) (time.Duration, float64) {
	_, rt, d := distRig()
	local := make([]float64, n)
	var elapsed time.Duration
	rt.OnNode(0, func(t *mpmd.Thread) {
		tm := d.Team()
		must(tm.Barrier(t)) // owner has filled the array
		start := t.Now()
		body(t, d, local)
		elapsed = time.Duration(t.Now() - start)
		must(tm.Barrier(t))
	})
	must(rt.Run())
	sum := 0.0
	for _, v := range local {
		sum += v
	}
	return elapsed, sum
}

// remoteIdx maps the k-th read to a node-1-owned element (odd indices).
func remoteIdx(k int) int { return 2*k + 1 }

func blocking() (time.Duration, float64) {
	return measure(func(t *mpmd.Thread, d *mpmd.Dist[float64], local []float64) {
		for k := 0; k < n; k++ {
			v, err := d.Get(t, remoteIdx(k))
			must(err)
			local[k] = v
		}
	})
}

func parforPrefetch() (time.Duration, float64) {
	return measure(func(t *mpmd.Thread, d *mpmd.Dist[float64], local []float64) {
		// One thread per iteration: each read still blocks, but the reads of
		// different iterations overlap on the wire.
		mpmd.ParFor(t, n, func(t2 *mpmd.Thread, k int) {
			v, err := d.Get(t2, remoteIdx(k))
			must(err)
			local[k] = v
		})
	})
}

func splitPhaseFutures() (time.Duration, float64) {
	return measure(func(t *mpmd.Thread, d *mpmd.Dist[float64], local []float64) {
		// All gets in flight at once; typed futures join them — no threads
		// spawned, no type assertions.
		futs := make([]*mpmd.Future[float64], n)
		for k := 0; k < n; k++ {
			f, err := d.GetAsync(t, remoteIdx(k))
			must(err)
			futs[k] = f
		}
		for k, f := range futs {
			local[k] = f.Wait(t)
		}
	})
}

func scSplitPhase() (time.Duration, float64) {
	m := newMachine(2)
	w := mpmd.NewSplitC(m)
	remote := make([]float64, n)
	for i := range remote {
		remote[i] = float64(remoteIdx(i)) * 1.5
	}
	seg := w.Share([][]float64{nil, remote}) // node 1's memory
	local := make([]float64, n)
	var elapsed time.Duration
	err := w.Run(func(p *mpmd.SplitCProc) {
		if p.MyPC() == 0 {
			start := p.T.Now()
			for i := 0; i < n; i++ {
				p.Get(&local[i], mpmd.SCPtr{PC: 1, Seg: seg, Off: i})
			}
			p.Sync()
			elapsed = time.Duration(p.T.Now() - start)
		}
		p.Barrier()
	})
	must(err)
	sum := 0.0
	for _, v := range local {
		sum += v
	}
	return elapsed, sum
}

func main() {
	flag.StringVar(&backend, "backend", "sim", "execution backend: sim (calibrated virtual time) or live (real goroutines, wall-clock)")
	flag.Parse()

	unit := "modelled SP virtual time"
	if backend == "live" {
		unit = "host wall-clock"
	}
	fmt.Printf("reading %d remote doubles (%s backend, %s; wire RTT %v modelled)\n\n",
		n, backend, unit, mpmd.SPConfig().ShortRTT())

	block, sum1 := blocking()
	parfor, sum2 := parforPrefetch()
	futures, sum3 := splitPhaseFutures()
	sc, sum4 := scSplitPhase()

	fmt.Printf("%-38s %10s %14s\n", "strategy", "total", "per element")
	fmt.Printf("%-38s %10v %14v\n", "blocking Dist.Get", block, block/n)
	fmt.Printf("%-38s %10v %14v\n", "parfor prefetch (thread per elem)", parfor, parfor/n)
	fmt.Printf("%-38s %10v %14v\n", "split-phase Dist.GetAsync futures", futures, futures/n)
	fmt.Printf("%-38s %10v %14v\n", "split-c split-phase gets", sc, sc/n)
	fmt.Printf("\nspeedup over blocking: parfor %.1fx, typed futures %.1fx, split-c %.1fx\n",
		float64(block)/float64(parfor), float64(block)/float64(futures), float64(block)/float64(sc))
	if sum1 != sum2 || sum2 != sum3 || sum3 != sum4 {
		log.Fatalf("checksum mismatch: %v %v %v %v", sum1, sum2, sum3, sum4)
	}
	fmt.Printf("(all four strategies fetched identical data: checksum %.3f)\n", sum1)
}
