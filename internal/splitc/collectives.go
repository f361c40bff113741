package splitc

import (
	"fmt"
	"math"

	"repro/internal/am"
	"repro/internal/machine"
	"repro/internal/threads"
)

// This file provides the Split-C library layer above the raw global-access
// primitives: spread arrays (the language's `A[i]::` distributed arrays) and
// the usual collectives (all_bcast, all_reduce) built from the same AM
// traffic a Split-C library would generate, whose charges the parity test
// pins to the paper's measured behavior. The log-depth tree collectives of
// the MPMD side live in internal/coll (coll.Team).

// SpreadF64 is a distributed array of doubles in the cyclic layout Split-C
// gives `double A[n]::` — element i lives on processor i%PROCS. The
// structure is visible, as in Split-C: Index returns a (processor, address)
// global pointer usable with every access primitive.
//
// For the typed, layout-flexible, backend-agnostic generalization usable
// from CC++ programs, see mpmd.Dist.
type SpreadF64 struct {
	procs int
	seg   Seg
	parts [][]float64
}

// NewSpreadF64 allocates a spread array of n doubles over w's processors and
// shares it (World.Share): processor pc owns elements pc, pc+procs,
// pc+2*procs, … — that is, ceil((n-pc)/procs) of them.
func NewSpreadF64(w *World, n int) *SpreadF64 {
	procs := w.m.NumNodes()
	s := &SpreadF64{procs: procs, parts: make([][]float64, procs)}
	for pc := 0; pc < procs; pc++ {
		sz := 0
		if n > pc {
			sz = (n - pc + procs - 1) / procs
		}
		s.parts[pc] = make([]float64, sz)
	}
	s.seg = w.Share(s.parts)
	return s
}

// Len returns the global element count.
func (s *SpreadF64) Len() int {
	n := 0
	for _, p := range s.parts {
		n += len(p)
	}
	return n
}

// Owner returns the processor owning global index i (cyclic layout).
func (s *SpreadF64) Owner(i int) int { return i % s.procs }

// Index returns the global pointer to element i, as Split-C's A[i]:: does.
func (s *SpreadF64) Index(i int) GPF {
	return GPF{PC: i % s.procs, Seg: s.seg, Off: i / s.procs}
}

// --- collectives -------------------------------------------------------------

// ReduceOp selects the all_reduce combiner.
type ReduceOp int

// The reduction operators Split-C's library provides for doubles.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
	numOps
)

// combine applies the operator to two doubles.
func (op ReduceOp) combine(a, b float64) float64 {
	switch op {
	case OpMax:
		if b > a {
			return b
		}
	case OpMin:
		if b < a {
			return b
		}
	case OpSum:
		return a + b
	}
	return a
}

// collectives is the world's all_reduce state. Node 0 coordinates: it folds
// every processor's contribution as it arrives and, on the last, sends each
// processor the result — the linear central plan of Split-C's library, whose
// message pattern and modelled costs the parity test pins. Values travel in
// the short-AM words, the operator as a word too.
type collectives struct {
	hContrib am.HandlerID
	hResult  am.HandlerID
	count    int     // node 0: contributions folded into acc this round
	acc      float64 // node 0: the round's fold
	gen      int     // node 0: rounds completed
	results  []float64
	haveGen  []am.Count // the result generations each node has landed
}

func (w *World) initCollectives() {
	c := &collectives{
		results: make([]float64, w.m.NumNodes()),
		haveGen: make([]am.Count, w.m.NumNodes()),
	}
	w.coll = c
	// The words may come from another process: a result must be the next
	// generation its node awaits, and a contribution must reach node 0 with
	// an operator the library has, or it is refused by name before it
	// touches anything.
	c.hResult = w.net.Register("sc.coll.result", func(t *threads.Thread, m am.Msg) {
		have := &c.haveGen[m.Dst]
		if m.A[1] != have.Value()+1 {
			panic(fmt.Sprintf("splitc: node %d all_reduce result from node %d for generation %d, awaiting %d", m.Dst, m.Src, m.A[1], have.Value()+1))
		}
		c.results[m.Dst] = math.Float64frombits(m.A[0])
		have.Advance(t, 1)
	})
	c.hContrib = w.net.Register("sc.coll.contrib", func(t *threads.Thread, m am.Msg) {
		switch {
		case m.Dst != 0:
			panic(fmt.Sprintf("splitc: node %d all_reduce contribution from node %d: only node 0 combines", m.Dst, m.Src))
		case m.A[1] >= uint64(numOps):
			panic(fmt.Sprintf("splitc: node %d all_reduce contribution from node %d: unknown operator %d", m.Dst, m.Src, m.A[1]))
		}
		if v := math.Float64frombits(m.A[0]); c.count == 0 {
			c.acc = v
		} else {
			c.acc = ReduceOp(m.A[1]).combine(c.acc, v)
		}
		if c.count++; c.count < w.m.NumNodes() {
			return
		}
		c.count = 0
		c.gen++
		for q := 0; q < w.m.NumNodes(); q++ {
			w.ep(t).Request(t, q, c.hResult, [4]uint64{math.Float64bits(c.acc), uint64(c.gen)}, nil, false)
		}
	})
}

// AllReduce combines v across all processors with op and returns the result
// on every processor (Split-C's all_reduce_to_all). It synchronizes like a
// barrier: all processors must call it.
func (p *Proc) AllReduce(v float64, op ReduceOp) float64 {
	c := p.w.coll
	target := c.haveGen[p.me].Value() + 1
	p.T.Charge(machine.CatRuntime, issueCost)
	p.ep.Request(p.T, 0, c.hContrib, [4]uint64{math.Float64bits(v), uint64(op)}, nil, false)
	p.ep.Await(p.T, &c.haveGen[p.me], target)
	return c.results[p.me]
}

// AllBcast distributes v from the root processor to every processor
// (Split-C's all_bcast): implemented as a reduction in which only the root
// contributes its value (the combiner ignores non-root contributions by
// summing zeros).
func (p *Proc) AllBcast(root int, v float64) float64 {
	contrib := 0.0
	if p.me == root {
		contrib = v
	}
	return p.AllReduce(contrib, OpSum)
}
