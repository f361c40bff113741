package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"

	"repro/mpmd"
)

// net_em3d: the ghost variant of examples/em3d on Dist[float64].GetAsync,
// Team.Barrier and a final AllReduce. One op is one time step (E phase then H
// phase). The graph comes from the seed, but its shape does not: every member
// has exactly em3dRemote distinct remote dependencies per array, spread evenly
// over the other members, so every seed does the same work on different
// elements.
const (
	em3dProcs  = 4
	em3dN      = 512 // graph nodes per array
	em3dDegree = 4
	em3dBlock  = em3dN / em3dProcs
	em3dEdges  = em3dBlock * em3dDegree    // per member per array
	em3dRemote = em3dEdges * 40 / 100      // remote edges per member per array
	em3dChunk  = 16                        // steps between node 0's continue/stop broadcasts
	em3dWeight = 0.5 / float64(em3dDegree) // keeps thousands of steps finite
)

// em3dGraph is one array's dependencies on the other array, in global
// indices: element i depends on deps[i*degree : (i+1)*degree].
type em3dGraph struct {
	deps []int
	w    []float64
}

func buildEM3D(rng *rand.Rand) *em3dGraph {
	g := &em3dGraph{deps: make([]int, em3dN*em3dDegree), w: make([]float64, em3dN*em3dDegree)}
	for m := 0; m < em3dProcs; m++ {
		edges := rng.Perm(em3dEdges) // the first em3dRemote of these are the remote ones
		var perm [em3dProcs][]int    // per target member: its elements in seeded order, drawn without replacement
		var used [em3dProcs]int
		for k, e := range edges {
			slot := m*em3dEdges + e
			g.w[slot] = (rng.Float64() - 0.5) * 2 * em3dWeight
			if k >= em3dRemote {
				g.deps[slot] = m*em3dBlock + rng.Intn(em3dBlock)
				continue
			}
			to := (m + 1 + k%(em3dProcs-1)) % em3dProcs
			if perm[to] == nil {
				perm[to] = rng.Perm(em3dBlock)
			}
			g.deps[slot] = to*em3dBlock + perm[to][used[to]]
			used[to]++
		}
	}
	return g
}

// em3dSerial is the reference: the same kernel on plain slices.
func em3dSerial(eg, hg *em3dGraph, steps int64) float64 {
	e, h := make([]float64, em3dN), make([]float64, em3dN)
	for i := range e {
		e[i], h[i] = float64(i), 2*float64(i)
	}
	phase := func(dst, src []float64, g *em3dGraph) {
		for i := range dst {
			cur := dst[i]
			for d := i * em3dDegree; d < (i+1)*em3dDegree; d++ {
				cur -= g.w[d] * src[g.deps[d]]
			}
			dst[i] = cur
		}
	}
	for s := int64(0); s < steps; s++ {
		phase(e, h, eg)
		phase(h, e, hg)
	}
	sum := 0.0
	for i := range e {
		sum += e[i] + h[i]
	}
	return sum
}

// em3dPlan is one member's view of one phase: which remote elements to
// prefetch and, per edge, where its value will be — a local offset (>= 0) or
// a ghost-table index (^slot). Plain slices, no maps in the step.
type em3dPlan struct {
	fetch []int // global indices of the distinct remote dependencies
	slot  []int32
	w     []float64
	ghost []float64
	futs  []*mpmd.Future[float64]
}

func planEM3D(g *em3dGraph, m int) *em3dPlan {
	p := &em3dPlan{slot: make([]int32, em3dEdges), w: g.w[m*em3dEdges : (m+1)*em3dEdges]}
	ghostOf := make([]int32, em3dN)
	for i := range ghostOf {
		ghostOf[i] = -1
	}
	for k := 0; k < em3dEdges; k++ {
		j := g.deps[m*em3dEdges+k]
		if j/em3dBlock == m {
			p.slot[k] = int32(j % em3dBlock)
			continue
		}
		if ghostOf[j] < 0 {
			ghostOf[j] = int32(len(p.fetch))
			p.fetch = append(p.fetch, j)
		}
		p.slot[k] = ^ghostOf[j]
	}
	p.ghost = make([]float64, len(p.fetch))
	p.futs = make([]*mpmd.Future[float64], len(p.fetch))
	return p
}

// em3dStamps are node 0's clock readings inside one traced step: phase start,
// gets landed, update done, barrier left — for E then H.
type em3dStamps [7]int64

func em3dSetup(r *rep, rt *mpmd.Runtime) error {
	tm, err := mpmd.WorldTeam(rt)
	if err != nil {
		return err
	}
	eD, err := mpmd.NewDist[float64](tm, em3dN, mpmd.LayoutBlock)
	if err != nil {
		return err
	}
	hD, err := mpmd.NewDist[float64](tm, em3dN, mpmd.LayoutBlock)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.spec.Seed))
	p := &em3dProblem{tm: tm, eD: eD, hD: hD, eg: buildEM3D(rng), hg: buildEM3D(rng)}
	for m := 0; m < em3dProcs; m++ {
		ePlan, hPlan := planEM3D(p.eg, m), planEM3D(p.hg, m)
		rt.OnNode(m, func(t *mpmd.Thread) {
			if err := r.em3dMember(t, m, p, ePlan, hPlan); err != nil {
				r.fail(fmt.Errorf("net_em3d member %d: %w", m, err))
			}
		})
	}
	return nil
}

// em3dProblem is what every member shares: the team, the two distributed
// arrays and the two dependency graphs.
type em3dProblem struct {
	tm     *mpmd.Team
	eD, hD *mpmd.Dist[float64]
	eg, hg *em3dGraph
}

func (r *rep) em3dMember(t *mpmd.Thread, m int, p *em3dProblem, ePlan, hPlan *em3dPlan) error {
	tm := p.tm
	e, err := p.eD.Local(t)
	if err != nil {
		return err
	}
	h, err := p.hD.Local(t)
	if err != nil {
		return err
	}
	for i := range e {
		gi := float64(m*em3dBlock + i)
		e[i], h[i] = gi, 2*gi
	}
	if err := tm.Barrier(t); err != nil {
		return err
	}

	var st *em3dStamps // non-nil only on node 0 of a traced run
	phase := func(dst, srcLocal []float64, src *mpmd.Dist[float64], pl *em3dPlan, at int) error {
		for k, j := range pl.fetch {
			f, err := src.GetAsync(t, j)
			if err != nil {
				return err
			}
			pl.futs[k] = f
		}
		for k, f := range pl.futs {
			pl.ghost[k] = f.Wait(t)
		}
		if st != nil {
			st[at+1] = r.now()
		}
		for i := range dst {
			cur := dst[i]
			for d := i * em3dDegree; d < (i+1)*em3dDegree; d++ {
				if s := pl.slot[d]; s >= 0 {
					cur -= pl.w[d] * srcLocal[s]
				} else {
					cur -= pl.w[d] * pl.ghost[^s]
				}
			}
			dst[i] = cur
		}
		if st != nil {
			st[at+2] = r.now()
		}
		return tm.Barrier(t)
	}
	step := func() error {
		if err := phase(e, h, p.hD, ePlan, 0); err != nil {
			return err
		}
		if st != nil {
			st[3] = r.now()
		}
		return phase(h, e, p.eD, hPlan, 3)
	}

	// Node 0 owns the clock: it tells the others how many steps to run next
	// (0 = stop), one broadcast per chunk so the steps themselves carry no
	// extra message.
	var steps, total int64
	var start, prev int64
	settled := int64(-1) // node 0: when the settling steps after the warm-up may stop
	var sums em3dMeans
	for {
		n, timed := 0, false
		if m == 0 {
			if total >= r.spec.Warmup && settled < 0 {
				settled = r.endSetup()
			}
			switch {
			case settled < 0:
				n = int(r.spec.Warmup - total)
			case r.now() < settled:
				n = em3dChunk
			case steps == 0 || prev-start < int64(r.spec.Window):
				n, timed = em3dChunk, true
			}
		}
		if n, err = mpmd.Broadcast(t, tm, 0, n); err != nil || n == 0 {
			break
		}
		switch {
		case timed && steps == 0:
			r.beginWindow()
			start = r.now()
			prev = start
			if r.spec.Traced {
				st = new(em3dStamps)
			}
		case timed:
			prev = r.now() // the broadcast is window time, but no step's latency
		}
		for k := 0; k < n; k++ {
			if st != nil {
				st[0] = prev
			}
			if err = step(); err != nil {
				return err
			}
			total++
			if !timed {
				continue
			}
			now := r.now()
			r.record(prev, now)
			if st != nil {
				st[6] = now
				r.steps = append(r.steps, *st)
				sums.Get += float64(st[1] - st[0] + st[4] - st[3])
				sums.Compute += float64(st[2] - st[1] + st[5] - st[4])
				sums.Barrier += float64(st[3] - st[2] + st[6] - st[5])
				sums.Step += float64(now - prev)
			}
			prev = now
			steps++
		}
	}
	if err != nil {
		return err
	}
	if m == 0 {
		r.endWindow(start, prev, steps)
		r.res.Issued = total
	}

	local := 0.0
	for i := range e {
		local += e[i] + h[i]
	}
	sum, err := mpmd.AllReduce(t, tm, local, mpmd.Sum[float64])
	if err != nil {
		return err
	}
	if r.spec.Traced {
		// coll.allreduce_us: a few more, timed at node 0.
		const extra = 32
		t0 := r.now()
		for k := 0; k < extra; k++ {
			if _, err := mpmd.AllReduce(t, tm, local, mpmd.Sum[float64]); err != nil {
				return err
			}
		}
		if st != nil {
			k := float64(steps)
			r.res.EM3D = &em3dMeans{sums.Get / k, sums.Compute / k, sums.Barrier / k, sums.Step / k, float64(r.now()-t0) / extra}
		}
	}
	if m != 0 {
		return nil
	}
	// A wrong checksum fails every step of the repetition.
	want := em3dSerial(p.eg, p.hg, total)
	if math.IsNaN(sum) || math.IsInf(sum, 0) || math.Abs(sum-want) > 1e-9*math.Abs(want)+1e-9 {
		fmt.Fprintf(os.Stderr, "benchmark: net_em3d checksum %v, want %v after %d steps\n", sum, want, total)
		r.res.Failed += total
	}
	return nil
}
