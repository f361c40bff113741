// Package splitc implements the Split-C runtime of the paper's SPMD baseline:
// a global address space over Active Messages with synchronous reads/writes,
// split-phase gets/puts, one-way stores, bulk transfers, and barriers.
//
// The SPMD model is preserved: Run launches the same program function on
// every node; each node is single-threaded (the paper: "Split-C takes an even
// more radical approach — offering only a single computation thread — and
// relies on split-phase remote accesses to tolerate latencies"). Message
// reception happens by polling: on every send, and whenever the program
// blocks waiting for a reply, a sync counter, or a barrier.
//
// Global pointers expose their structure (processor number + address), as in
// Split-C; pointer arithmetic on the processor part is the application's
// business. The address is words: a segment — an array the program shared
// with World.Share, named by its place in set-up order — and an offset into
// the owner's part of it. Every remote access is one of the remote-memory
// protocol CC++'s global pointers use too (am.Mem): a request carries the
// words, the owner resolves them in its own segment table, and this package
// is a front end that differs from CC++'s only in its price. So a pointer
// means the same in every address space that ran the same set-up, and a World
// spans the sharded netlive backend like any other.
package splitc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
	"unsafe"

	"repro/internal/am"
	"repro/internal/machine"
	"repro/internal/threads"
	"repro/internal/transport"
)

// Fixed runtime-library costs per global-access operation, calibrated so the
// Split-C "Runtime" column of Table 4 lands at its measured 4–6 µs.
const (
	issueCost    = 2 * time.Microsecond // building and issuing a request
	completeCost = 2 * time.Microsecond // landing a reply / completion flagging
)

// Seg names an array shared with World.Share: its place in the world's
// segment table, the same in every address space that ran the same set-up.
type Seg int

// GPF is a Split-C global pointer to a double: processor, segment, offset.
type GPF struct {
	PC  int
	Seg Seg
	Off int
}

// GVF is a global pointer to a vector of Len doubles (for bulk operations).
type GVF struct {
	PC       int
	Seg      Seg
	Off, Len int
}

// World is one SPMD program instance over a machine.
type World struct {
	m     *machine.Machine
	net   *am.Net
	mem   *am.Mem // the segment table every global pointer names
	procs []*Proc

	// coll is the collective-operation state (collectives.go).
	coll *collectives
}

// Proc is the per-node program context handed to the SPMD function.
type Proc struct {
	w  *World
	me int

	// T is the node's single computation thread, valid while the program
	// function runs.
	T  *threads.Thread
	ep *am.Endpoint

	// Its waits await counts the handlers advance (am.Endpoint.Await), and
	// the store count of its node (am.Mem.Stores).
	issued          uint64   // split-phase gets+puts issued
	done, completed am.Count // blocking and split-phase replies landed
	buf             []byte   // a bulk put's encoding
}

// New builds a Split-C world over machine m.
func New(m *machine.Machine) *World {
	w := &World{m: m, net: am.NewNet(m, am.Profile{})}
	for i := 0; i < m.NumNodes(); i++ {
		w.procs = append(w.procs, &Proc{w: w, me: i, ep: w.net.Endpoint(i)})
	}
	w.mem = am.NewMem(w.net, am.Price{Issue: issueCost, Complete: completeCost})
	w.initCollectives()
	return w
}

// Share registers an array whose part on processor pc is parts[pc] (nil
// where pc holds none) and returns its segment. Segments are numbered in
// Share order, so every address space of a sharded machine shares its arrays
// in the same order, as SPMD images lay out their globals alike; each passes
// its own copies, and only the owner's part is ever dereferenced. Set-up
// time only.
func (w *World) Share(parts [][]float64) Seg { return Seg(w.mem.AddF64(parts)) }

// Machine returns the underlying machine.
func (w *World) Machine() *machine.Machine { return w.m }

// Proc returns the per-node context for node i (useful in tests).
func (w *World) Proc(i int) *Proc { return w.procs[i] }

// Run starts prog on every node this address space hosts — all of them, off
// the sharded backend — and drives the machine to completion. A message left
// in an inbox then, which nothing will handle, is an error naming it.
func (w *World) Run(prog func(p *Proc)) error {
	topo, sharded := w.m.Backend().(transport.Sharded)
	for i, p := range w.procs {
		if sharded && !topo.IsLocal(i) {
			continue
		}
		s := threads.NewScheduler(w.m.Node(i))
		p.ep.Attach(s)
		s.Start("main", func(t *threads.Thread) {
			p.T = t
			prog(p)
		})
	}
	return errors.Join(w.m.Run(), w.net.Unhandled())
}

// MyPC returns this node's processor number (Split-C's MYPROC).
func (p *Proc) MyPC() int { return p.me }

// Procs returns the number of processors (Split-C's PROCS).
func (p *Proc) Procs() int { return p.w.m.NumNodes() }

// access performs one access of the given kind to the gp.Len doubles gp
// names; a get lands in dst, a put comes from src. When this processor owns
// them it is a dereference, free for one double and charged its copy for a
// vector, as compiled Split-C. Otherwise it is a remote access (am.Mem):
// synchronous with wait, else observed by Sync, or for a store by the owner's
// WaitStores.
func (p *Proc) access(kind uint64, gp GVF, dst, src []float64, wait bool) {
	bulk, store := kind&am.OpBulk != 0, kind&^am.OpBulk == am.OpStore
	if bulk && len(dst)+len(src) != gp.Len {
		panic(fmt.Sprintf("splitc: a bulk access of %d doubles through a pointer to %d", len(dst)+len(src), gp.Len))
	}
	if gp.PC == p.me {
		p.node().Acct.Count(machine.CntLocalDeref, 1)
		v := p.w.mem.Local(p.me, int(gp.Seg), gp.Off, gp.Len)
		switch kind &^ am.OpBulk {
		case am.OpGet:
			copy(dst, v)
		case am.OpAdd:
			v[0] += src[0]
		default:
			copy(v, src)
		}
		if bulk {
			p.T.Charge(machine.CatRuntime, time.Duration(gp.Len*8)*p.T.Cfg().MemCopyPerByte)
		}
		if store {
			p.w.mem.Stores(p.me).Advance(p.T, uint64(gp.Len))
		}
		return
	}
	a := [4]uint64{kind, uint64(gp.Seg), uint64(gp.Off), uint64(gp.Len)}
	var payload []byte
	switch {
	case bulk:
		payload = p.enc(src)
	case src != nil:
		a[3] = math.Float64bits(src[0])
	}
	var op *am.Op
	if !store {
		op = &am.Op{Done: &p.done, Into: am.F64Part(dst)}
		if !wait {
			op.Done = &p.completed
			p.issued++
		}
	}
	p.w.mem.Access(p.T, op, gp.PC, a, payload, wait)
}

// ep returns the endpoint of the node the thread is running on.
func (w *World) ep(t *threads.Thread) *am.Endpoint { return w.net.Endpoint(t.Node().ID) }

// enc encodes doubles for a bulk payload; the message layer copies it at
// send time, and the protocol charges the copy.
func (p *Proc) enc(src []float64) []byte {
	p.buf = p.buf[:0]
	for _, v := range src {
		p.buf = binary.LittleEndian.AppendUint64(p.buf, math.Float64bits(v))
	}
	return p.buf
}

// --- scalar global accesses -------------------------------------------------

// Read performs a synchronous read through a global pointer (lx = *gp).
func (p *Proc) Read(gp GPF) float64 {
	var v [1]float64
	p.access(am.OpGet, GVF{gp.PC, gp.Seg, gp.Off, 1}, v[:], nil, true)
	return v[0]
}

// Write performs a synchronous write through a global pointer (*gp = v),
// returning once the remote ack arrives.
func (p *Proc) Write(gp GPF, v float64) {
	p.access(am.OpPut, GVF{gp.PC, gp.Seg, gp.Off, 1}, nil, []float64{v}, true)
}

// Get issues a split-phase read (dst := *gp); completion is observed by Sync.
func (p *Proc) Get(dst *float64, gp GPF) {
	p.access(am.OpGet, GVF{gp.PC, gp.Seg, gp.Off, 1}, unsafe.Slice(dst, 1), nil, false)
}

// Put issues a split-phase write (*gp := v); completion is observed by Sync.
func (p *Proc) Put(gp GPF, v float64) {
	p.access(am.OpPut, GVF{gp.PC, gp.Seg, gp.Off, 1}, nil, []float64{v}, false)
}

// Store issues a one-way store (*gp :- v): no acknowledgement travels back;
// the target's store counter observes arrival (WaitStores).
func (p *Proc) Store(gp GPF, v float64) {
	p.access(am.OpStore, GVF{gp.PC, gp.Seg, gp.Off, 1}, nil, []float64{v}, false)
}

// AtomicAdd issues a split-phase atomic read-modify-write (*gp += v): the
// addition executes atomically at the owning processor (AM handlers run to
// completion) and the acknowledgement is observed by Sync. This is the
// Split-C idiom behind `atomic(foo, ...)` used by the Water application's
// remote force accumulation.
func (p *Proc) AtomicAdd(gp GPF, v float64) {
	p.access(am.OpAdd, GVF{gp.PC, gp.Seg, gp.Off, 1}, nil, []float64{v}, false)
}

// Sync blocks until all of this processor's outstanding split-phase
// operations have completed (Split-C's sync()).
func (p *Proc) Sync() {
	p.T.Charge(machine.CatRuntime, completeCost)
	p.ep.Await(p.T, &p.completed, p.issued)
}

// Outstanding reports the number of incomplete split-phase operations.
func (p *Proc) Outstanding() int { return int(p.issued - p.completed.Value()) }

// --- bulk transfers: lengths must match --------------------------------------

// BulkRead synchronously copies a remote vector into dst
// (bulk_read(&lA, gpA, n)).
func (p *Proc) BulkRead(dst []float64, gp GVF) { p.access(am.OpGet|am.OpBulk, gp, dst, nil, true) }

// BulkWrite synchronously copies src into a remote vector
// (bulk_write(gpA, &lA, n)).
func (p *Proc) BulkWrite(gp GVF, src []float64) { p.access(am.OpPut|am.OpBulk, gp, nil, src, true) }

// BulkGet issues a split-phase bulk read; completion is observed by Sync.
func (p *Proc) BulkGet(dst []float64, gp GVF) { p.access(am.OpGet|am.OpBulk, gp, dst, nil, false) }

// BulkStore issues a one-way bulk store; the target's store counter advances
// by the element count on arrival.
func (p *Proc) BulkStore(gp GVF, src []float64) {
	p.access(am.OpStore|am.OpBulk, gp, nil, src, false)
}

// WaitStores blocks until at least n store values have landed at this node.
func (p *Proc) WaitStores(n int) {
	p.T.Charge(machine.CatRuntime, completeCost)
	p.ep.Await(p.T, p.w.mem.Stores(p.me), uint64(max(n, 0)))
}

// --- barrier ------------------------------------------------------------------

// Barrier blocks until every processor has entered the barrier. It is the
// Split-C barrier(): an all_reduce whose value nobody reads — one arrival at
// node 0, one release from it to every processor.
func (p *Proc) Barrier() { p.AllReduce(0, OpSum) }

func (p *Proc) node() *machine.Node { return p.w.m.Node(p.me) }
