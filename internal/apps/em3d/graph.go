// Package em3d reproduces the paper's EM3D application: propagation of
// electromagnetic waves through a bipartite graph of E and H field nodes
// (Culler et al., "Parallel Programming in Split-C", SC 1993; Madsen 1992).
//
// Three program variants are implemented in both languages, exactly as §5
// describes:
//
//   - base: every access to a remote neighbour dereferences a global pointer.
//   - ghost: remote neighbour values are fetched once per phase into local
//     ghost nodes, eliminating redundant global accesses.
//   - bulk: ghost values are aggregated per source processor and moved with
//     one bulk transfer per (source, destination) pair.
//
// The synthetic workload matches the paper: a bipartite graph with an equal
// number of E and H nodes per processor, fixed degree, and a configurable
// fraction of edges crossing processor boundaries.
package em3d

import (
	"math/rand"
	"time"
)

// Params configures a synthetic EM3D run.
type Params struct {
	// GraphNodes is the total number of graph nodes (split evenly between E
	// and H and across processors). The paper uses 800.
	GraphNodes int
	// Degree is the number of neighbours per node. The paper uses 20.
	Degree int
	// Procs is the number of processors. The paper uses 4.
	Procs int
	// RemotePct is the percentage of edges whose endpoints live on
	// different processors (10, 40, 70, 100 in the paper).
	RemotePct int
	// Iters is the number of update steps.
	Iters int
	// Seed makes graph construction deterministic.
	Seed int64
}

// ref identifies a graph node as (processor, local index).
type ref struct {
	pc  int
	idx int
}

// edge is one dependency: value at To is updated using the value at From
// with the given weight. From and To are in opposite node classes.
type edge struct {
	from   ref
	weight float64
}

// Graph is the distributed bipartite graph. Field values are stored per
// processor so each simulated node owns its slice; only the owning node's
// runtime touches them during computation.
type Graph struct {
	P Params
	// EVals[p][i] and HVals[p][i] are the field values.
	EVals, HVals [][]float64
	// EDeps[p][i] lists the H-node dependencies of E node (p,i);
	// HDeps[p][i] lists the E-node dependencies of H node (p,i).
	EDeps, HDeps [][][]edge
	// PerProcNodes is the number of E (and H) nodes per processor.
	PerProcNodes int
}

// Build constructs the synthetic graph.
func Build(p Params) *Graph {
	if p.GraphNodes%(2*p.Procs) != 0 {
		panic("em3d: GraphNodes must divide evenly into 2*Procs")
	}
	rng := rand.New(rand.NewSource(p.Seed))
	per := p.GraphNodes / (2 * p.Procs)
	g := &Graph{P: p, PerProcNodes: per}
	for pc := 0; pc < p.Procs; pc++ {
		e := make([]float64, per)
		h := make([]float64, per)
		for i := range e {
			e[i] = rng.Float64()
			h[i] = rng.Float64()
		}
		g.EVals = append(g.EVals, e)
		g.HVals = append(g.HVals, h)
		g.EDeps = append(g.EDeps, make([][]edge, per))
		g.HDeps = append(g.HDeps, make([][]edge, per))
	}
	pick := func(owner int) ref {
		remote := rng.Intn(100) < p.RemotePct && p.Procs > 1
		pc := owner
		if remote {
			pc = rng.Intn(p.Procs - 1)
			if pc >= owner {
				pc++
			}
		}
		return ref{pc: pc, idx: rng.Intn(per)}
	}
	for pc := 0; pc < p.Procs; pc++ {
		for i := 0; i < per; i++ {
			for d := 0; d < p.Degree; d++ {
				g.EDeps[pc][i] = append(g.EDeps[pc][i], edge{from: pick(pc), weight: rng.Float64()})
				g.HDeps[pc][i] = append(g.HDeps[pc][i], edge{from: pick(pc), weight: rng.Float64()})
			}
		}
	}
	return g
}

// Clone deep-copies the graph (values and topology), so one build can feed
// several runs with identical inputs.
func (g *Graph) Clone() *Graph {
	ng := &Graph{P: g.P, PerProcNodes: g.PerProcNodes}
	for pc := 0; pc < g.P.Procs; pc++ {
		ng.EVals = append(ng.EVals, append([]float64(nil), g.EVals[pc]...))
		ng.HVals = append(ng.HVals, append([]float64(nil), g.HVals[pc]...))
		ed := make([][]edge, g.PerProcNodes)
		hd := make([][]edge, g.PerProcNodes)
		for i := 0; i < g.PerProcNodes; i++ {
			ed[i] = append([]edge(nil), g.EDeps[pc][i]...)
			hd[i] = append([]edge(nil), g.HDeps[pc][i]...)
		}
		ng.EDeps = append(ng.EDeps, ed)
		ng.HDeps = append(ng.HDeps, hd)
	}
	return ng
}

// TotalEdges returns the number of dependency edges in the whole graph
// (both phases).
func (g *Graph) TotalEdges() int {
	return g.P.GraphNodes * g.P.Degree
}

// EdgesPerProc returns dependency edges owned by one processor.
func (g *Graph) EdgesPerProc() int { return g.TotalEdges() / g.P.Procs }

// Checksum sums all field values — used to cross-validate the language
// versions against the serial reference.
func (g *Graph) Checksum() float64 {
	s := 0.0
	for pc := 0; pc < g.P.Procs; pc++ {
		for i := 0; i < g.PerProcNodes; i++ {
			s += g.EVals[pc][i] + g.HVals[pc][i]
		}
	}
	return s
}

// RunSerial executes the reference computation directly (no simulation):
// iters steps of E updates followed by H updates, matching the distributed
// versions' phase order and read-then-write-all semantics (each phase reads
// the other field's pre-phase values).
func RunSerial(g *Graph) {
	for it := 0; it < g.P.Iters; it++ {
		serialPhase(g.EVals, g.EDeps, g.HVals)
		serialPhase(g.HVals, g.HDeps, g.EVals)
	}
}

func serialPhase(dst [][]float64, deps [][][]edge, src [][]float64) {
	for pc := range dst {
		for i := range dst[pc] {
			acc := dst[pc][i]
			for _, e := range deps[pc][i] {
				acc -= e.weight * src[e.from.pc][e.from.idx]
			}
			dst[pc][i] = acc
		}
	}
}

// flopsPerEdge is the arithmetic charged per dependency edge: the
// multiply-subtract plus the pointer chasing and index arithmetic of the
// irregular graph, folded into flop units (calibrated so that em3d-bulk is
// compute-bound, as the paper's absolute numbers show).
const flopsPerEdge = 20

// nodeUpdateCost returns the CPU charge for updating one graph node with the
// given number of edges.
func nodeUpdateCost(edges int, flopCost time.Duration) time.Duration {
	return time.Duration(flopsPerEdge*edges) * flopCost
}
