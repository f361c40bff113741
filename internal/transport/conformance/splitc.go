package conformance

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/splitc"
	"repro/internal/threads"
)

// Global-pointer conformance: a global pointer is words — a node, a segment
// of the arrays every address space registered in the same order, an offset —
// so an access through one must land on the owner's copy of the data on
// every backend, the sharded ones included. Each co-resident shard allocates
// and registers arrays of its own, as separate processes would, and results
// are checked on the owner's copy: an access that dereferenced the
// initiator's copy would touch the wrong shard's memory and fail here.

const scLen = 3 // doubles per bulk region

// scVal is what node src puts in slot k of node dst's memory; scVec is the
// bulk region src sends dst.
func scVal(src, dst, k int) float64 { return float64(100*src + 10*dst + k) }
func scVec(src, dst, k int) []float64 {
	v := make([]float64, scLen)
	for i := range v {
		v[i] = scVal(src, dst, k) + float64(i)/8
	}
	return v
}

// parts allocates one part of size doubles for each of n nodes.
func parts(n, size int) [][]float64 {
	ps := make([][]float64, n)
	for i := range ps {
		ps[i] = make([]float64, size)
	}
	return ps
}

// scArrays is one world's shared data, each array with a part on every node:
// cells holds a Write, a Put and a Store slot per sender plus one atomic sum,
// vecs and stores a bulk region per sender.
type scArrays struct {
	cells, vecs, stores       [][]float64
	cellSeg, vecSeg, storeSeg splitc.Seg
	spread                    *splitc.SpreadF64
}

// runEach runs every shard's program concurrently and joins their errors.
func runEach(runs []func() error) error {
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for k, run := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = run()
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// splitC: every Split-C primitive, from each node to every other node.
func splitC(t *testing.T, f ShardedFactory) {
	const n = 4
	ms := f(machine.SP1997(), n)
	runs := make([]func() error, len(ms))
	for k, m := range ms {
		w := splitc.New(m)
		a := &scArrays{cells: parts(n, 3*n+1), vecs: parts(n, n*scLen), stores: parts(n, n*scLen)}
		a.cellSeg, a.vecSeg, a.storeSeg = w.Share(a.cells), w.Share(a.vecs), w.Share(a.stores)
		a.spread = splitc.NewSpreadF64(w, 3*n+1)
		runs[k] = func() error { return w.Run(func(p *splitc.Proc) { scMember(t, a, p) }) }
	}
	if err := runEach(runs); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func scMember(t *testing.T, a *scArrays, p *splitc.Proc) {
	me, n := p.MyPC(), p.Procs()
	cell := func(q, k, src int) splitc.GPF { return splitc.GPF{PC: q, Seg: a.cellSeg, Off: k*n + src} }
	region := func(q int, seg splitc.Seg, src int) splitc.GVF {
		return splitc.GVF{PC: q, Seg: seg, Off: src * scLen, Len: scLen}
	}

	// Every writing primitive, from this node to each of the others.
	p.Barrier()
	for q := 0; q < n; q++ {
		if q == me {
			continue
		}
		p.Write(cell(q, 0, me), scVal(me, q, 0))
		p.Put(cell(q, 1, me), scVal(me, q, 1))
		p.Store(cell(q, 2, me), scVal(me, q, 2))
		p.AtomicAdd(splitc.GPF{PC: q, Seg: a.cellSeg, Off: 3 * n}, float64(me+1))
		p.BulkWrite(region(q, a.vecSeg, me), scVec(me, q, 0))
		p.BulkStore(region(q, a.storeSeg, me), scVec(me, q, 1))
	}
	p.Sync()
	p.WaitStores((n - 1) * (1 + scLen))
	p.Barrier()

	// This node's own copy holds what every other node sent it.
	sum := 0.0
	for src := 0; src < n; src++ {
		if src == me {
			continue
		}
		sum += float64(src + 1)
		for k := 0; k < 3; k++ {
			if got := a.cells[me][k*n+src]; got != scVal(src, me, k) {
				t.Errorf("node %d: slot %d from node %d holds %v, want %v", me, k, src, got, scVal(src, me, k))
			}
		}
		if got := a.vecs[me][src*scLen : (src+1)*scLen]; !slices.Equal(got, scVec(src, me, 0)) {
			t.Errorf("node %d: bulk write from node %d landed %v", me, src, got)
		}
		if got := a.stores[me][src*scLen : (src+1)*scLen]; !slices.Equal(got, scVec(src, me, 1)) {
			t.Errorf("node %d: bulk store from node %d landed %v", me, src, got)
		}
	}
	if got := a.cells[me][3*n]; got != sum {
		t.Errorf("node %d: atomic adds summed to %v, want %v", me, got, sum)
	}

	// Every reading primitive, back from each of the others.
	vec := make([]float64, scLen)
	for q := 0; q < n; q++ {
		if q == me {
			continue
		}
		if got := p.Read(cell(q, 0, me)); got != scVal(me, q, 0) {
			t.Errorf("node %d: Read from node %d = %v, want %v", me, q, got, scVal(me, q, 0))
		}
		var got float64
		p.Get(&got, cell(q, 1, me))
		p.BulkGet(vec, region(q, a.storeSeg, me))
		p.Sync()
		if got != scVal(me, q, 1) || !slices.Equal(vec, scVec(me, q, 1)) {
			t.Errorf("node %d: Get and BulkGet from node %d = %v and %v", me, q, got, vec)
		}
		p.BulkRead(vec, region(q, a.vecSeg, me))
		if !slices.Equal(vec, scVec(me, q, 0)) {
			t.Errorf("node %d: BulkRead from node %d = %v", me, q, vec)
		}
	}

	// A reduction, and a spread array: each element put by its owner's left
	// neighbour, then read by everyone.
	if got := p.AllReduce(float64(me+1), splitc.OpSum); got != float64(n*(n+1)/2) {
		t.Errorf("node %d: AllReduce = %v, want %v", me, got, n*(n+1)/2)
	}
	for i := 0; i < a.spread.Len(); i++ {
		if a.spread.Owner(i) == (me+1)%n {
			p.Put(a.spread.Index(i), float64(i))
		}
	}
	p.Sync()
	p.Barrier()
	for i := 0; i < a.spread.Len(); i++ {
		if got := p.Read(a.spread.Index(i)); got != float64(i) {
			t.Errorf("node %d: spread element %d = %v", me, i, got)
		}
	}
	p.Barrier()
}

// globalPointers: ReadF64 and WriteF64 through GPF64 handles from every node
// to every node, each owner's copy checked afterwards; then a burst of
// concurrent reads per node, twice core's split-phase slot count (16): each
// is served on a thread of its own at the owner, and none waits for a slot.
func globalPointers(t *testing.T, f ShardedFactory) {
	const n, burst = 4, 2 * 16
	ms := f(machine.SP1997(), n)
	rts := make([]*core.Runtime, len(ms))
	for k, m := range ms {
		rt := core.NewRuntime(m)
		cells := parts(n, n)
		seg := rt.AddF64(cells)
		tm := coll.For(rt).World()
		for i := 0; i < n; i++ {
			rt.OnNode(i, func(th *threads.Thread) {
				me := th.Node().ID
				for q := 0; q < n; q++ {
					gp := core.NewGPF64(q, seg, me)
					rt.WriteF64(th, gp, scVal(me, q, 0))
					if got := rt.ReadF64(th, gp); got != scVal(me, q, 0) {
						t.Errorf("node %d: read back %v from node %d, want %v", me, got, q, scVal(me, q, 0))
					}
				}
				tm.Barrier(th)
				for src := 0; src < n; src++ {
					if got := cells[me][src]; got != scVal(src, me, 0) {
						t.Errorf("node %d's own copy: the cell node %d wrote holds %v, want %v", me, src, got, scVal(src, me, 0))
					}
				}
				core.ParFor(th, burst, func(t2 *threads.Thread, i int) {
					q, src := (me+1+i%(n-1))%n, i%n
					if got := rt.ReadF64(t2, core.NewGPF64(q, seg, src)); got != scVal(src, q, 0) {
						t.Errorf("node %d, burst read %d: node %d's cell %d holds %v, want %v", me, i, q, src, got, scVal(src, q, 0))
					}
				})
			})
		}
		rts[k] = rt
	}
	if err := collRun(rts); err != nil {
		t.Fatalf("Run: %v", err)
	}
}
