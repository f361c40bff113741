// EM3D on the typed v2 + collectives surface: the paper's electromagnetic
// wave kernel — a bipartite E/H dependency graph updated in alternating
// phases — written against mpmd.Dist and mpmd.Team instead of hand-rolled
// message code, and runnable on either backend.
//
// Two program variants mirror the paper's Figure 5 axis:
//
//   - base:  every dependency is fetched with a split-phase Dist.GetAsync
//     each phase (remote traffic proportional to edges);
//   - ghost: each member prefetches every distinct remote dependency once
//     per phase into a ghost cache, then updates locally (the paper's
//     ghost-node optimization, here a dozen lines over the same API).
//
// Phases are separated by Team.Barrier (log-depth dissemination), and the
// final checksum is an AllReduce — both collectives from the new surface.
// The calibrated Figure 5 regeneration lives in cmd/mpmdbench fig5; this
// example shows the same application shape on the modern API.
//
// Run with: go run ./examples/em3d [-backend=sim|live] [-remote 100]
// [-nodes 128] [-degree 4] [-iters 3]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"repro/mpmd"
)

const procs = 4

// graph is the shared dependency structure: for each element of one array,
// the indices and weights of its dependencies in the other array. Built
// identically everywhere at setup (one OS process hosts all nodes, as with
// the machine model itself); only the values live in the Dist arrays.
type graph struct {
	n       int
	deps    [][]int // per element: dependency indices in the other array
	weights [][]float64
}

func buildGraph(n, degree, remotePct int, rng *rand.Rand, owner func(i int) int) *graph {
	g := &graph{n: n, deps: make([][]int, n), weights: make([][]float64, n)}
	for i := 0; i < n; i++ {
		for d := 0; d < degree; d++ {
			var j int
			if rng.Intn(100) < remotePct {
				j = rng.Intn(n) // anywhere (usually another member)
			} else {
				// A dependency owned by the same member as element i.
				for j = rng.Intn(n); owner(j) != owner(i); j = rng.Intn(n) {
				}
			}
			g.deps[i] = append(g.deps[i], j)
			g.weights[i] = append(g.weights[i], rng.Float64()-0.5)
		}
	}
	return g
}

// update applies one phase to dst[i] from src values: the EM3D kernel
// dst[i] -= sum_j w_ij * src[dep_ij].
func (g *graph) update(i int, cur float64, src func(j int) float64) float64 {
	for d, j := range g.deps[i] {
		cur -= g.weights[i][d] * src(j)
	}
	return cur
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

type result struct {
	perEdge  time.Duration
	checksum float64
}

// runDistributed runs the kernel over Dist arrays on a fresh machine.
// ghost=true prefetches distinct remote dependencies once per phase.
func runDistributed(backend string, eg, hg *graph, iters int, ghost bool) result {
	var m *mpmd.Machine
	switch backend {
	case "sim":
		m = mpmd.NewMachine(mpmd.SPConfig(), procs)
	case "live":
		m = mpmd.NewLiveMachine(mpmd.SPConfig(), procs)
	default:
		log.Fatalf("unknown backend %q (want sim or live)", backend)
	}
	rt := mpmd.NewRuntime(m)
	tm, err := mpmd.WorldTeam(rt)
	must(err)
	eD, err := mpmd.NewDist[float64](tm, eg.n, mpmd.LayoutBlock)
	must(err)
	hD, err := mpmd.NewDist[float64](tm, hg.n, mpmd.LayoutBlock)
	must(err)

	edges := 0
	for _, d := range eg.deps {
		edges += len(d)
	}
	for _, d := range hg.deps {
		edges += len(d)
	}

	var out result
	for p := 0; p < procs; p++ {
		p := p
		rt.OnNode(p, func(t *mpmd.Thread) {
			// Initial values: element i of E starts at i, of H at 2i.
			must(eD.ForEachLocal(t, func(i int, v *float64) { *v = float64(i) }))
			must(hD.ForEachLocal(t, func(i int, v *float64) { *v = 2 * float64(i) }))
			must(tm.Barrier(t))

			phase := func(dst *mpmd.Dist[float64], g *graph, src *mpmd.Dist[float64]) {
				var lookup func(j int) float64
				if ghost {
					// Prefetch each distinct dependency once, split-phase, and
					// join in issue order: ranging over a map here would make
					// the simulator's virtual time differ run to run.
					cache := map[int]float64{}
					var issued []int
					var futs []*mpmd.Future[float64]
					must(dst.ForEachLocal(t, func(i int, v *float64) {
						for _, j := range g.deps[i] {
							if _, seen := cache[j]; !seen {
								f, err := src.GetAsync(t, j)
								must(err)
								cache[j] = 0
								issued, futs = append(issued, j), append(futs, f)
							}
						}
					}))
					for k, f := range futs {
						cache[issued[k]] = f.Wait(t)
					}
					lookup = func(j int) float64 { return cache[j] }
				} else {
					lookup = func(j int) float64 {
						v, err := src.Get(t, j)
						must(err)
						return v
					}
				}
				must(dst.ForEachLocal(t, func(i int, v *float64) {
					*v = g.update(i, *v, lookup)
				}))
				must(tm.Barrier(t))
			}

			start := t.Now()
			for it := 0; it < iters; it++ {
				phase(eD, eg, hD)
				phase(hD, hg, eD)
			}
			elapsed := time.Duration(t.Now() - start)

			// Checksum: AllReduce over local partial sums.
			local := 0.0
			must(eD.ForEachLocal(t, func(i int, v *float64) { local += *v }))
			must(hD.ForEachLocal(t, func(i int, v *float64) { local += *v }))
			sum, err := mpmd.AllReduce(t, tm, local, mpmd.Sum[float64])
			must(err)
			if p == 0 {
				out.perEdge = elapsed / time.Duration(edges*iters)
				out.checksum = sum
			}
		})
	}
	must(rt.Run())
	return out
}

// runSerial computes the reference result in-process.
func runSerial(eg, hg *graph, iters int) float64 {
	e := make([]float64, eg.n)
	h := make([]float64, hg.n)
	for i := range e {
		e[i] = float64(i)
	}
	for i := range h {
		h[i] = 2 * float64(i)
	}
	for it := 0; it < iters; it++ {
		for i := range e {
			e[i] = eg.update(i, e[i], func(j int) float64 { return h[j] })
		}
		for i := range h {
			h[i] = hg.update(i, h[i], func(j int) float64 { return e[j] })
		}
	}
	sum := 0.0
	for _, v := range e {
		sum += v
	}
	for _, v := range h {
		sum += v
	}
	return sum
}

func main() {
	backend := flag.String("backend", "sim", "execution backend: sim (calibrated virtual time) or live (real goroutines, wall-clock)")
	remote := flag.Int("remote", 100, "percentage of edges allowed to cross member boundaries")
	nodes := flag.Int("nodes", 128, "graph nodes per array")
	degree := flag.Int("degree", 4, "dependencies per node")
	iters := flag.Int("iters", 3, "update steps")
	flag.Parse()
	if *nodes < 1 || *degree < 1 || *iters < 1 {
		log.Fatalf("need -nodes, -degree, and -iters >= 1 (got %d, %d, %d)", *nodes, *degree, *iters)
	}
	if *remote < 0 || *remote > 100 {
		log.Fatalf("-remote is a percentage, got %d", *remote)
	}

	// The block layout assigns ceil(n/p)-sized contiguous chunks.
	block := (*nodes + procs - 1) / procs
	owner := func(i int) int { return i / block }
	rng := rand.New(rand.NewSource(1))
	eg := buildGraph(*nodes, *degree, *remote, rng, owner)
	hg := buildGraph(*nodes, *degree, *remote, rng, owner)
	want := runSerial(eg, hg, *iters)

	fmt.Printf("EM3D on Dist[float64] + Team collectives (%s backend): %d+%d nodes, degree %d, %d%% remote, %d iterations, %d members\n\n",
		*backend, *nodes, *nodes, *degree, *remote, *iters, procs)
	fmt.Printf("%-28s %14s\n", "variant", "per edge")
	for _, v := range []struct {
		name  string
		ghost bool
	}{{"base (get per dependency)", false}, {"ghost (prefetch distinct)", true}} {
		r := runDistributed(*backend, eg, hg, *iters, v.ghost)
		if math.Abs(r.checksum-want) > 1e-6*math.Abs(want)+1e-9 {
			log.Fatalf("%s: checksum %v, want %v", v.name, r.checksum, want)
		}
		fmt.Printf("%-28s %14v\n", v.name, r.perEdge)
	}
	fmt.Println("\nboth distributed variants matched the serial reference checksum")
}
