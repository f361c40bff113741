package splitc

import (
	"math"

	"repro/internal/am"
	"repro/internal/coll"
	"repro/internal/machine"
	"repro/internal/threads"
)

// This file provides the Split-C library layer above the raw global-access
// primitives: spread arrays (the language's `A[i]::` distributed arrays) and
// the usual collectives (all_bcast, all_reduce) built from the same AM
// traffic a Split-C library would generate. The combining state machines
// live in internal/coll (the central-coordinator plans); this file supplies
// the wire format and charges, which the parity test pins to the paper's
// measured behavior. The log-depth tree collectives of the MPMD side live
// in internal/coll too — see coll.Team.

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

// collective state per World, allocated lazily on first use. Node 0
// coordinates; values travel in the existing short-AM format. The
// arrival-counting fold is coll.CentralReduce — the linear central plan —
// so the message pattern and modelled costs are exactly the measured ones.
type collectives struct {
	hContrib am.HandlerID
	hResult  am.HandlerID
	red      *coll.CentralReduce
	gen      int
	results  []float64
	haveGen  []am.Count // the result generations each node has landed
}

// ReduceOp selects the all_reduce combiner (shared with internal/coll).
type ReduceOp = coll.ReduceOp

// The reduction operators Split-C's library provides for doubles.
const (
	OpSum = coll.OpSum
	OpMax = coll.OpMax
	OpMin = coll.OpMin
)

func (w *World) initCollectives() {
	c := &collectives{
		red:     coll.NewCentralReduce(w.m.NumNodes()),
		results: make([]float64, w.m.NumNodes()),
		haveGen: make([]am.Count, w.m.NumNodes()),
	}
	w.coll = c
	c.hResult = w.net.Register("sc.coll.result", func(t *threads.Thread, m am.Msg) {
		c.results[m.Dst] = math.Float64frombits(m.A[0])
		advanceTo(t, &c.haveGen[m.Dst], m.A[1])
	})
	// Contribution messages carry the operator as a word (A[1]) — the enum
	// is the wire form, no object reference rides along.
	c.hContrib = w.net.Register("sc.coll.contrib", func(t *threads.Thread, m am.Msg) {
		v := math.Float64frombits(m.A[0])
		op := ReduceOp(m.A[1])
		if acc, done := c.red.Absorb(op, v); done {
			c.gen++
			for q := 0; q < w.m.NumNodes(); q++ {
				w.ep(t).RequestShort(t, q, c.hResult,
					[4]uint64{math.Float64bits(acc), uint64(c.gen)})
			}
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
	p.ep.RequestShort(p.T, 0, c.hContrib, [4]uint64{math.Float64bits(v), uint64(op)})
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
