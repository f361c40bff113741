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
// business. Since all simulated nodes share one OS process, the "address" is
// a real Go pointer that only the owning node's handlers dereference.
package splitc

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/am"
	"repro/internal/coll"
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

// GPF is a Split-C global pointer to a double: a (processor, address) pair.
type GPF struct {
	PC int
	P  *float64
}

// GVF is a global pointer to a vector of doubles (for bulk operations).
type GVF struct {
	PC int
	S  []float64
}

// World is one SPMD program instance over a machine.
type World struct {
	m      *machine.Machine
	net    *am.Net
	scheds []*threads.Scheduler
	procs  []*Proc

	hReadReq, hReadReply     am.HandlerID
	hWriteReq, hAck          am.HandlerID
	hStore, hAtomicAdd       am.HandlerID
	hBulkReadReq, hBulkReply am.HandlerID
	hBulkWriteReq            am.HandlerID
	hBulkStore               am.HandlerID
	hBarrierArrive, hRelease am.HandlerID

	// Central barrier state, owned by node 0 (the linear plan from
	// internal/coll; the wire traffic around it is unchanged).
	barCtr *coll.CentralCounter

	// coll is the collective-operation state (collectives.go).
	coll *collectives

	// reqs is the world's in-flight request table: messages name their
	// request record by table ID in the word arguments instead of carrying a
	// Go pointer, so the wire format holds nothing but words and payload
	// bytes. The records themselves still hold raw addresses into the
	// world's (single) address space — Split-C's global pointers expose real
	// addresses, and every simulated node of a World shares one process by
	// the language's own model.
	reqs reqTable
}

// scReq is one in-flight global-access request. Which fields are meaningful
// depends on the operation; see the handler word layouts below.
type scReq struct {
	ptr  *float64  // scalar target (owned by the destination)
	dst  *float64  // scalar landing slot at the initiator
	vsrc []float64 // bulk-read source (owned by the destination)
	vdst []float64 // bulk landing vector (initiator for reads, owner for writes/stores)
	from *Proc     // initiator (completion bookkeeping)
	done *bool     // nil for split-phase operations
	n    int       // element count for bulk stores
}

// reqTable hands out wire IDs for scReq records. Senders put, handlers get
// (a copy) and release; the mutex makes it safe for any node's context to
// touch it on the live backend. The free list keeps the table from growing
// with traffic.
type reqTable struct {
	mu    sync.Mutex
	slots []scReq
	free  []uint32
}

// put stores r and returns its wire ID.
func (rt *reqTable) put(r scReq) uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if ln := len(rt.free); ln > 0 {
		id := rt.free[ln-1]
		rt.free = rt.free[:ln-1]
		rt.slots[id] = r
		return uint64(id)
	}
	rt.slots = append(rt.slots, r)
	return uint64(len(rt.slots) - 1)
}

// get returns a copy of the record named by id.
func (rt *reqTable) get(id uint64) scReq {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.slots[id]
}

// release frees the slot (the final consumer of the request calls it).
func (rt *reqTable) release(id uint64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.slots[id] = scReq{}
	rt.free = append(rt.free, uint32(id))
}

// take is get followed by release.
func (rt *reqTable) take(id uint64) scReq {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	r := rt.slots[id]
	rt.slots[id] = scReq{}
	rt.free = append(rt.free, uint32(id))
	return r
}

// Proc is the per-node program context handed to the SPMD function.
type Proc struct {
	w  *World
	me int

	// T is the node's single computation thread, valid while the program
	// function runs.
	T  *threads.Thread
	ep *am.Endpoint

	outstanding int // split-phase gets+puts not yet completed
	storesRecvd int // one-way store values landed at this node
	releasedGen int // last barrier generation this node was released from
}

// New builds a Split-C world over machine m. Split-C's global pointers are
// raw addresses by the language's own model ("all simulated nodes share one
// OS process"), so a World cannot span the sharded netlive backend — New
// rejects multi-shard machines up front rather than letting a request-table
// ID resolve against the wrong process's memory.
func New(m *machine.Machine) *World {
	if topo, ok := m.Backend().(transport.Sharded); ok && topo.NumShards() > 1 {
		panic(fmt.Sprintf("splitc: machine spans %d address spaces; Split-C worlds require a single-process backend (sim, live, or single-shard net)",
			topo.NumShards()))
	}
	w := &World{m: m, net: am.NewNet(m), barCtr: coll.NewCentralCounter(m.NumNodes())}
	for i := 0; i < m.NumNodes(); i++ {
		s := threads.NewScheduler(m.Node(i))
		w.scheds = append(w.scheds, s)
		ep := w.net.Endpoint(i)
		ep.Attach(s)
		w.procs = append(w.procs, &Proc{w: w, me: i, ep: ep})
	}
	w.registerHandlers()
	w.initCollectives()
	return w
}

// Machine returns the underlying machine.
func (w *World) Machine() *machine.Machine { return w.m }

// Proc returns the per-node context for node i (useful in tests).
func (w *World) Proc(i int) *Proc { return w.procs[i] }

// Run starts prog on every node and drives the simulation to completion.
func (w *World) Run(prog func(p *Proc)) error {
	for i := range w.procs {
		p := w.procs[i]
		w.scheds[i].Start("main", func(t *threads.Thread) {
			p.T = t
			prog(p)
		})
	}
	return w.m.Run()
}

// MyPC returns this node's processor number (Split-C's MYPROC).
func (p *Proc) MyPC() int { return p.me }

// Procs returns the number of processors (Split-C's PROCS).
func (p *Proc) Procs() int { return p.w.m.NumNodes() }

// --- message handlers --------------------------------------------------------
//
// Word layouts (requests carry their reqTable ID; the final consumer of a
// request releases the slot):
//
//	sc.read.req:       A = [id]            reply: sc.read.reply A = [bits, id]
//	sc.write.req:      A = [bits, id]      ack:   sc.ack        A = [id]
//	sc.atomic.add:     A = [bits, id]      ack:   sc.ack        A = [id]
//	sc.store:          A = [bits, id]      (one-way; destination releases)
//	sc.bulk.read.req:  A = [len, id]       reply: sc.bulk.reply A = [id] + payload
//	sc.bulk.write.req: A = [id] + payload  ack:   sc.ack        A = [id]
//	sc.bulk.store:     A = [id] + payload  (one-way; destination releases)

func (w *World) registerHandlers() {
	w.hReadReply = w.net.Register("sc.read.reply", func(t *threads.Thread, m am.Msg) {
		rq := w.reqs.take(m.A[1])
		*rq.dst = math.Float64frombits(m.A[0])
		rq.from.complete(t, rq.done)
	})
	w.hReadReq = w.net.Register("sc.read.req", func(t *threads.Thread, m am.Msg) {
		rq := w.reqs.get(m.A[0])
		bits := math.Float64bits(*rq.ptr)
		w.ep(t).RequestShort(t, m.Src, w.hReadReply, [4]uint64{bits, m.A[0]})
	})
	w.hAck = w.net.Register("sc.ack", func(t *threads.Thread, m am.Msg) {
		rq := w.reqs.take(m.A[0])
		rq.from.complete(t, rq.done)
	})
	w.hWriteReq = w.net.Register("sc.write.req", func(t *threads.Thread, m am.Msg) {
		rq := w.reqs.get(m.A[1])
		*rq.ptr = math.Float64frombits(m.A[0])
		w.ep(t).RequestShort(t, m.Src, w.hAck, [4]uint64{m.A[1]})
	})
	w.hAtomicAdd = w.net.Register("sc.atomic.add", func(t *threads.Thread, m am.Msg) {
		rq := w.reqs.get(m.A[1])
		*rq.ptr += math.Float64frombits(m.A[0])
		w.ep(t).RequestShort(t, m.Src, w.hAck, [4]uint64{m.A[1]})
	})
	w.hStore = w.net.Register("sc.store", func(t *threads.Thread, m am.Msg) {
		rq := w.reqs.take(m.A[1])
		*rq.ptr = math.Float64frombits(m.A[0])
		w.procs[m.Dst].storesRecvd++
	})
	w.hBulkReply = w.net.Register("sc.bulk.reply", func(t *threads.Thread, m am.Msg) {
		rq := w.reqs.take(m.A[0])
		decodeF64(t, m.Payload, rq.vdst)
		rq.from.complete(t, rq.done)
	})
	w.hBulkReadReq = w.net.Register("sc.bulk.read.req", func(t *threads.Thread, m am.Msg) {
		rq := w.reqs.get(m.A[1])
		payload := encodeF64(t, rq.vsrc)
		w.ep(t).RequestBulk(t, m.Src, w.hBulkReply, payload, [4]uint64{m.A[1]})
	})
	w.hBulkWriteReq = w.net.Register("sc.bulk.write.req", func(t *threads.Thread, m am.Msg) {
		rq := w.reqs.get(m.A[0])
		decodeF64(t, m.Payload, rq.vdst)
		w.ep(t).RequestShort(t, m.Src, w.hAck, [4]uint64{m.A[0]})
	})
	w.hBulkStore = w.net.Register("sc.bulk.store", func(t *threads.Thread, m am.Msg) {
		rq := w.reqs.take(m.A[0])
		decodeF64(t, m.Payload, rq.vdst)
		w.procs[m.Dst].storesRecvd += rq.n
	})
	w.hRelease = w.net.Register("sc.barrier.release", func(t *threads.Thread, m am.Msg) {
		w.procs[m.Dst].releasedGen = int(m.A[0])
	})
	w.hBarrierArrive = w.net.Register("sc.barrier.arrive", func(t *threads.Thread, m am.Msg) {
		if gen, release := w.barCtr.Arrive(); release {
			for i := 0; i < w.m.NumNodes(); i++ {
				w.ep(t).RequestShort(t, i, w.hRelease, [4]uint64{uint64(gen)})
			}
		}
	})
}

// ep returns the endpoint of the node the thread is running on.
func (w *World) ep(t *threads.Thread) *am.Endpoint { return w.net.Endpoint(t.Node().ID) }

// complete lands one reply on the requesting processor: either flips the
// blocking-op flag or decrements the split-phase counter.
func (p *Proc) complete(t *threads.Thread, done *bool) {
	t.Charge(machine.CatRuntime, completeCost)
	if done != nil {
		*done = true
		return
	}
	p.outstanding--
	if p.outstanding < 0 {
		panic("splitc: completion underflow")
	}
}

// encodeF64 serializes doubles for a bulk payload, charging the copy.
func encodeF64(t *threads.Thread, src []float64) []byte {
	t.Charge(machine.CatRuntime, time.Duration(len(src)*8)*t.Cfg().MemCopyPerByte)
	out := make([]byte, len(src)*8)
	for i, v := range src {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

// decodeF64 lands a bulk payload in dst, charging the copy.
func decodeF64(t *threads.Thread, payload []byte, dst []float64) {
	if len(payload) != len(dst)*8 {
		panic(fmt.Sprintf("splitc: bulk size mismatch: %d bytes for %d doubles", len(payload), len(dst)))
	}
	t.Charge(machine.CatRuntime, time.Duration(len(payload))*t.Cfg().MemCopyPerByte)
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
	}
}

// --- scalar global accesses -------------------------------------------------

// Read performs a synchronous read through a global pointer (lx = *gp).
// Local pointers dereference directly at zero cost, as compiled Split-C does.
func (p *Proc) Read(gp GPF) float64 {
	if gp.PC == p.me {
		p.node().Acct.Count(machine.CntLocalDeref, 1)
		return *gp.P
	}
	p.node().Acct.Count(machine.CntRemoteRead, 1)
	p.T.Charge(machine.CatRuntime, issueCost)
	done := false
	dst := new(float64)
	id := p.w.reqs.put(scReq{ptr: gp.P, dst: dst, from: p, done: &done})
	p.ep.RequestShort(p.T, gp.PC, p.w.hReadReq, [4]uint64{id})
	p.ep.PollUntil(p.T, func() bool { return done })
	return *dst
}

// Write performs a synchronous write through a global pointer (*gp = v),
// returning once the remote ack arrives.
func (p *Proc) Write(gp GPF, v float64) {
	if gp.PC == p.me {
		p.node().Acct.Count(machine.CntLocalDeref, 1)
		*gp.P = v
		return
	}
	p.node().Acct.Count(machine.CntRemoteWrite, 1)
	p.T.Charge(machine.CatRuntime, issueCost)
	done := false
	id := p.w.reqs.put(scReq{ptr: gp.P, from: p, done: &done})
	p.ep.RequestShort(p.T, gp.PC, p.w.hWriteReq, [4]uint64{math.Float64bits(v), id})
	p.ep.PollUntil(p.T, func() bool { return done })
}

// Get issues a split-phase read (dst := *gp); completion is observed by Sync.
func (p *Proc) Get(dst *float64, gp GPF) {
	if gp.PC == p.me {
		p.node().Acct.Count(machine.CntLocalDeref, 1)
		*dst = *gp.P
		return
	}
	p.node().Acct.Count(machine.CntRemoteRead, 1)
	p.T.Charge(machine.CatRuntime, issueCost)
	p.outstanding++
	id := p.w.reqs.put(scReq{ptr: gp.P, dst: dst, from: p})
	p.ep.RequestShort(p.T, gp.PC, p.w.hReadReq, [4]uint64{id})
}

// Put issues a split-phase write (*gp := v); completion is observed by Sync.
func (p *Proc) Put(gp GPF, v float64) {
	if gp.PC == p.me {
		p.node().Acct.Count(machine.CntLocalDeref, 1)
		*gp.P = v
		return
	}
	p.node().Acct.Count(machine.CntRemoteWrite, 1)
	p.T.Charge(machine.CatRuntime, issueCost)
	p.outstanding++
	id := p.w.reqs.put(scReq{ptr: gp.P, from: p})
	p.ep.RequestShort(p.T, gp.PC, p.w.hWriteReq, [4]uint64{math.Float64bits(v), id})
}

// Store issues a one-way store (*gp :- v): no acknowledgement travels back;
// the target's store counter observes arrival (WaitStores).
func (p *Proc) Store(gp GPF, v float64) {
	if gp.PC == p.me {
		p.node().Acct.Count(machine.CntLocalDeref, 1)
		*gp.P = v
		p.storesRecvd++
		return
	}
	p.node().Acct.Count(machine.CntRemoteWrite, 1)
	p.T.Charge(machine.CatRuntime, issueCost)
	id := p.w.reqs.put(scReq{ptr: gp.P})
	p.ep.RequestShort(p.T, gp.PC, p.w.hStore, [4]uint64{math.Float64bits(v), id})
}

// AtomicAdd issues a split-phase atomic read-modify-write (*gp += v): the
// addition executes atomically at the owning processor (AM handlers run to
// completion) and the acknowledgement is observed by Sync. This is the
// Split-C idiom behind `atomic(foo, ...)` used by the Water application's
// remote force accumulation.
func (p *Proc) AtomicAdd(gp GPF, v float64) {
	if gp.PC == p.me {
		p.node().Acct.Count(machine.CntLocalDeref, 1)
		*gp.P += v
		return
	}
	p.node().Acct.Count(machine.CntRemoteWrite, 1)
	p.T.Charge(machine.CatRuntime, issueCost)
	p.outstanding++
	id := p.w.reqs.put(scReq{ptr: gp.P, from: p})
	p.ep.RequestShort(p.T, gp.PC, p.w.hAtomicAdd, [4]uint64{math.Float64bits(v), id})
}

// Sync blocks until all of this processor's outstanding split-phase
// operations have completed (Split-C's sync()).
func (p *Proc) Sync() {
	p.T.Charge(machine.CatRuntime, completeCost)
	p.ep.PollUntil(p.T, func() bool { return p.outstanding == 0 })
}

// Outstanding reports the number of incomplete split-phase operations.
func (p *Proc) Outstanding() int { return p.outstanding }

// --- bulk transfers ----------------------------------------------------------

// BulkRead synchronously copies a remote vector into dst
// (bulk_read(&lA, gpA, n)). Lengths must match.
func (p *Proc) BulkRead(dst []float64, gp GVF) {
	if len(dst) != len(gp.S) {
		panic("splitc: BulkRead length mismatch")
	}
	if gp.PC == p.me {
		p.node().Acct.Count(machine.CntLocalDeref, 1)
		copy(dst, gp.S)
		p.T.Charge(machine.CatRuntime, time.Duration(len(dst)*8)*p.T.Cfg().MemCopyPerByte)
		return
	}
	p.node().Acct.Count(machine.CntRemoteRead, 1)
	p.T.Charge(machine.CatRuntime, issueCost)
	done := false
	id := p.w.reqs.put(scReq{vsrc: gp.S, vdst: dst, from: p, done: &done})
	p.ep.RequestShort(p.T, gp.PC, p.w.hBulkReadReq, [4]uint64{uint64(len(dst)), id})
	p.ep.PollUntil(p.T, func() bool { return done })
}

// BulkWrite synchronously copies src into a remote vector
// (bulk_write(gpA, &lA, n)).
func (p *Proc) BulkWrite(gp GVF, src []float64) {
	if len(src) != len(gp.S) {
		panic("splitc: BulkWrite length mismatch")
	}
	if gp.PC == p.me {
		p.node().Acct.Count(machine.CntLocalDeref, 1)
		copy(gp.S, src)
		p.T.Charge(machine.CatRuntime, time.Duration(len(src)*8)*p.T.Cfg().MemCopyPerByte)
		return
	}
	p.node().Acct.Count(machine.CntRemoteWrite, 1)
	p.T.Charge(machine.CatRuntime, issueCost)
	done := false
	id := p.w.reqs.put(scReq{vdst: gp.S, from: p, done: &done})
	payload := encodeF64(p.T, src)
	p.ep.RequestBulk(p.T, gp.PC, p.w.hBulkWriteReq, payload, [4]uint64{id})
	p.ep.PollUntil(p.T, func() bool { return done })
}

// BulkGet issues a split-phase bulk read; completion is observed by Sync.
func (p *Proc) BulkGet(dst []float64, gp GVF) {
	if len(dst) != len(gp.S) {
		panic("splitc: BulkGet length mismatch")
	}
	if gp.PC == p.me {
		p.node().Acct.Count(machine.CntLocalDeref, 1)
		copy(dst, gp.S)
		p.T.Charge(machine.CatRuntime, time.Duration(len(dst)*8)*p.T.Cfg().MemCopyPerByte)
		return
	}
	p.node().Acct.Count(machine.CntRemoteRead, 1)
	p.T.Charge(machine.CatRuntime, issueCost)
	p.outstanding++
	id := p.w.reqs.put(scReq{vsrc: gp.S, vdst: dst, from: p})
	p.ep.RequestShort(p.T, gp.PC, p.w.hBulkReadReq, [4]uint64{uint64(len(dst)), id})
}

// BulkStore issues a one-way bulk store; the target's store counter advances
// by the element count on arrival.
func (p *Proc) BulkStore(gp GVF, src []float64) {
	if len(src) != len(gp.S) {
		panic("splitc: BulkStore length mismatch")
	}
	if gp.PC == p.me {
		p.node().Acct.Count(machine.CntLocalDeref, 1)
		copy(gp.S, src)
		p.T.Charge(machine.CatRuntime, time.Duration(len(src)*8)*p.T.Cfg().MemCopyPerByte)
		p.storesRecvd += len(src)
		return
	}
	p.node().Acct.Count(machine.CntRemoteWrite, 1)
	p.T.Charge(machine.CatRuntime, issueCost)
	payload := encodeF64(p.T, src)
	id := p.w.reqs.put(scReq{vdst: gp.S, n: len(src)})
	p.ep.RequestBulk(p.T, gp.PC, p.w.hBulkStore, payload, [4]uint64{id})
}

// WaitStores blocks until at least n store values have landed at this node.
func (p *Proc) WaitStores(n int) {
	p.T.Charge(machine.CatRuntime, completeCost)
	p.ep.PollUntil(p.T, func() bool { return p.storesRecvd >= n })
}

// --- barrier ------------------------------------------------------------------

// Barrier blocks until every processor has entered the barrier. It is the
// Split-C barrier(): a central counter on node 0 plus a release broadcast.
func (p *Proc) Barrier() {
	target := p.releasedGen + 1
	p.T.Charge(machine.CatRuntime, issueCost)
	p.ep.RequestShort(p.T, 0, p.w.hBarrierArrive, [4]uint64{})
	p.ep.PollUntil(p.T, func() bool { return p.releasedGen >= target })
}

func (p *Proc) node() *machine.Node { return p.w.m.Node(p.me) }
