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
// the owner's part of it. A request carries them in its message words and the
// owner resolves them in its own segment table, so a pointer means the same
// in every address space that ran the same set-up, and a World spans the
// sharded netlive backend like any other.
package splitc

import (
	"encoding/binary"
	"fmt"
	"math"
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
	procs []*Proc

	// segs is the segment table: segs[s][pc] is processor pc's part of the
	// array shared as segment s, nil where it holds none. Share fills it at
	// set-up; afterwards a processor touches only its own parts.
	segs [][][]float64

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
}

// Proc is the per-node program context handed to the SPMD function.
type Proc struct {
	w  *World
	me int

	// T is the node's single computation thread, valid while the program
	// function runs.
	T  *threads.Thread
	ep *am.Endpoint

	// reqs holds this processor's requests awaiting a reply; a request names
	// its record in the message words by wire ID, and the reply echoes it.
	reqs am.ReqTable[landing]

	// Its waits await counts the handlers advance (am.Endpoint.Await).
	issued           uint64   // split-phase gets+puts issued
	done, completed  am.Count // blocking and split-phase replies landed
	stores, released am.Count // store values landed, barriers released from
}

// landing is one request in flight at its initiator: where the reply lands
// and how its completion is observed.
type landing struct {
	dst  *float64  // a scalar read's landing slot
	vdst []float64 // a bulk read's landing vector
	done *am.Count // the count its reply advances: Proc.done or Proc.completed
}

// New builds a Split-C world over machine m.
func New(m *machine.Machine) *World {
	w := &World{m: m, net: am.NewNet(m), barCtr: coll.NewCentralCounter(m.NumNodes())}
	for i := 0; i < m.NumNodes(); i++ {
		w.procs = append(w.procs, &Proc{w: w, me: i, ep: w.net.Endpoint(i)})
	}
	w.registerHandlers()
	w.initCollectives()
	return w
}

// Share registers an array whose part on processor pc is parts[pc] (nil
// where pc holds none) and returns its segment. Segments are numbered in
// Share order, so every address space of a sharded machine shares its arrays
// in the same order, as SPMD images lay out their globals alike; each passes
// its own copies, and only the owner's part is ever dereferenced. Set-up
// time only.
func (w *World) Share(parts [][]float64) Seg {
	if len(parts) != w.m.NumNodes() {
		panic(fmt.Sprintf("splitc: Share with %d parts on a %d-node machine", len(parts), w.m.NumNodes()))
	}
	w.segs = append(w.segs, parts)
	return Seg(len(w.segs) - 1)
}

// Machine returns the underlying machine.
func (w *World) Machine() *machine.Machine { return w.m }

// Proc returns the per-node context for node i (useful in tests).
func (w *World) Proc(i int) *Proc { return w.procs[i] }

// Run starts prog on every node this address space hosts — all of them, off
// the sharded backend — and drives the machine to completion.
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
	return w.m.Run()
}

// MyPC returns this node's processor number (Split-C's MYPROC).
func (p *Proc) MyPC() int { return p.me }

// Procs returns the number of processors (Split-C's PROCS).
func (p *Proc) Procs() int { return p.w.m.NumNodes() }

// part resolves the words (segment, offset, length) of an access from node
// src: n elements of this processor's own part of the segment. The words may
// come from another process, so each is checked before it indexes anything,
// and a bad one is refused by name.
func (p *Proc) part(src int, seg, off, n uint64) []float64 {
	if seg >= uint64(len(p.w.segs)) || p.w.segs[seg][p.me] == nil {
		panic(fmt.Sprintf("splitc: node %d access from node %d: no part of segment %d here (%d shared)", p.me, src, seg, len(p.w.segs)))
	}
	part := p.w.segs[seg][p.me]
	if off > uint64(len(part)) || n > uint64(len(part))-off {
		panic(fmt.Sprintf("splitc: node %d access from node %d: %d elements at offset %d outside segment %d's part of %d", p.me, src, n, off, seg, len(part)))
	}
	return part[off : off+n]
}

// remote counts an access to processor pc's memory — a local deref, or a
// remote access of the given kind, whose issue it charges — and reports
// whether it is remote.
func (p *Proc) remote(pc int, kind machine.Cnt) bool {
	if pc == p.me {
		p.node().Acct.Count(machine.CntLocalDeref, 1)
		return false
	}
	p.node().Acct.Count(kind, 1)
	p.T.Charge(machine.CatRuntime, issueCost)
	return true
}

// at and vec resolve a global pointer into this processor's own memory.
func (p *Proc) at(gp GPF) *float64 { return &p.part(p.me, uint64(gp.Seg), uint64(gp.Off), 1)[0] }
func (p *Proc) vec(gp GVF) []float64 {
	return p.part(p.me, uint64(gp.Seg), uint64(gp.Off), uint64(gp.Len))
}

// words is the request layout every scalar access shares, and every bulk
// access shares GVF.words (see the handlers).
func (gp GPF) words(bits, id uint64) [4]uint64 {
	return [4]uint64{bits, uint64(gp.Seg), uint64(gp.Off), id}
}
func (gp GVF) words(id uint64) [4]uint64 {
	return [4]uint64{uint64(gp.Seg), uint64(gp.Off), uint64(gp.Len), id}
}

// --- message handlers --------------------------------------------------------
//
// Word layouts: a request carries its target's (segment, offset[, length])
// and the initiator's request ID; the reply echoes the ID.
//
//	sc.read.req:       A = [0, seg, off, id]       reply: sc.read.reply A = [bits, id]
//	sc.write.req:      A = [bits, seg, off, id]    ack:   sc.ack        A = [id]
//	sc.atomic.add:     A = [bits, seg, off, id]    ack:   sc.ack        A = [id]
//	sc.store:          A = [bits, seg, off]        (one-way)
//	sc.bulk.read.req:  A = [seg, off, len, id]     reply: sc.bulk.reply A = [id] + payload
//	sc.bulk.write.req: A = [seg, off, len, id] + payload   ack: sc.ack  A = [id]
//	sc.bulk.store:     A = [seg, off, len] + payload       (one-way)

func (w *World) registerHandlers() {
	// at and vec resolve a request's target at its owner, m.Dst.
	at := func(m am.Msg) *float64 { return &w.procs[m.Dst].part(m.Src, m.A[1], m.A[2], 1)[0] }
	vec := func(m am.Msg) []float64 { return w.procs[m.Dst].part(m.Src, m.A[0], m.A[1], m.A[2]) }
	// landed resolves a reply's request ID at the initiator, m.Dst.
	landed := func(m am.Msg, idWord int) *landing {
		return w.procs[m.Dst].reqs.Take("Split-C", m.Dst, m.Src, m.A[idWord])
	}
	w.hReadReply = w.net.Register("sc.read.reply", func(t *threads.Thread, m am.Msg) {
		rq := landed(m, 1)
		*rq.dst = math.Float64frombits(m.A[0])
		complete(t, rq)
	})
	w.hReadReq = w.net.Register("sc.read.req", func(t *threads.Thread, m am.Msg) {
		w.ep(t).RequestShort(t, m.Src, w.hReadReply, [4]uint64{math.Float64bits(*at(m)), m.A[3]})
	})
	w.hAck = w.net.Register("sc.ack", func(t *threads.Thread, m am.Msg) {
		complete(t, landed(m, 0))
	})
	w.hWriteReq = w.net.Register("sc.write.req", func(t *threads.Thread, m am.Msg) {
		*at(m) = math.Float64frombits(m.A[0])
		w.ep(t).RequestShort(t, m.Src, w.hAck, [4]uint64{m.A[3]})
	})
	w.hAtomicAdd = w.net.Register("sc.atomic.add", func(t *threads.Thread, m am.Msg) {
		*at(m) += math.Float64frombits(m.A[0])
		w.ep(t).RequestShort(t, m.Src, w.hAck, [4]uint64{m.A[3]})
	})
	w.hStore = w.net.Register("sc.store", func(t *threads.Thread, m am.Msg) {
		*at(m) = math.Float64frombits(m.A[0])
		w.procs[m.Dst].stores.Advance(t, 1)
	})
	w.hBulkReply = w.net.Register("sc.bulk.reply", func(t *threads.Thread, m am.Msg) {
		rq := landed(m, 0)
		decodeF64(t, m, rq.vdst)
		complete(t, rq)
	})
	w.hBulkReadReq = w.net.Register("sc.bulk.read.req", func(t *threads.Thread, m am.Msg) {
		payload := encodeF64(t, vec(m))
		w.ep(t).RequestBulk(t, m.Src, w.hBulkReply, payload, [4]uint64{m.A[3]})
	})
	w.hBulkWriteReq = w.net.Register("sc.bulk.write.req", func(t *threads.Thread, m am.Msg) {
		decodeF64(t, m, vec(m))
		w.ep(t).RequestShort(t, m.Src, w.hAck, [4]uint64{m.A[3]})
	})
	w.hBulkStore = w.net.Register("sc.bulk.store", func(t *threads.Thread, m am.Msg) {
		dst := vec(m)
		decodeF64(t, m, dst)
		w.procs[m.Dst].stores.Advance(t, uint64(len(dst)))
	})
	w.hRelease = w.net.Register("sc.barrier.release", func(t *threads.Thread, m am.Msg) {
		advanceTo(t, &w.procs[m.Dst].released, m.A[0])
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

// advanceTo advances c to gen, a generation a release message carried.
func advanceTo(t *threads.Thread, c *am.Count, gen uint64) {
	c.Advance(t, max(gen, c.Value())-c.Value())
}

// complete lands one reply on the requesting processor: it advances the count
// of its blocking accesses or of its split-phase ones.
func complete(t *threads.Thread, rq *landing) {
	t.Charge(machine.CatRuntime, completeCost)
	rq.done.Advance(t, 1)
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

// decodeF64 lands bulk message m's payload in dst, charging the copy. The
// payload must hold exactly len(dst) doubles.
func decodeF64(t *threads.Thread, m am.Msg, dst []float64) {
	if len(m.Payload) != len(dst)*8 {
		panic(fmt.Sprintf("splitc: node %d bulk message from node %d: %d bytes for %d doubles", m.Dst, m.Src, len(m.Payload), len(dst)))
	}
	t.Charge(machine.CatRuntime, time.Duration(len(m.Payload))*t.Cfg().MemCopyPerByte)
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(m.Payload[i*8:]))
	}
}

// --- scalar global accesses -------------------------------------------------

// Read performs a synchronous read through a global pointer (lx = *gp).
// Local pointers dereference directly at zero cost, as compiled Split-C does.
func (p *Proc) Read(gp GPF) float64 {
	if !p.remote(gp.PC, machine.CntRemoteRead) {
		return *p.at(gp)
	}
	var v float64
	want := p.done.Value() + 1
	id := p.reqs.Add(&landing{dst: &v, done: &p.done})
	p.ep.RequestShort(p.T, gp.PC, p.w.hReadReq, gp.words(0, id))
	p.ep.Await(p.T, &p.done, want)
	return v
}

// Write performs a synchronous write through a global pointer (*gp = v),
// returning once the remote ack arrives.
func (p *Proc) Write(gp GPF, v float64) {
	if !p.remote(gp.PC, machine.CntRemoteWrite) {
		*p.at(gp) = v
		return
	}
	want := p.done.Value() + 1
	id := p.reqs.Add(&landing{done: &p.done})
	p.ep.RequestShort(p.T, gp.PC, p.w.hWriteReq, gp.words(math.Float64bits(v), id))
	p.ep.Await(p.T, &p.done, want)
}

// Get issues a split-phase read (dst := *gp); completion is observed by Sync.
func (p *Proc) Get(dst *float64, gp GPF) {
	if !p.remote(gp.PC, machine.CntRemoteRead) {
		*dst = *p.at(gp)
		return
	}
	p.issued++
	id := p.reqs.Add(&landing{dst: dst, done: &p.completed})
	p.ep.RequestShort(p.T, gp.PC, p.w.hReadReq, gp.words(0, id))
}

// Put issues a split-phase write (*gp := v); completion is observed by Sync.
func (p *Proc) Put(gp GPF, v float64) {
	if !p.remote(gp.PC, machine.CntRemoteWrite) {
		*p.at(gp) = v
		return
	}
	p.issued++
	id := p.reqs.Add(&landing{done: &p.completed})
	p.ep.RequestShort(p.T, gp.PC, p.w.hWriteReq, gp.words(math.Float64bits(v), id))
}

// Store issues a one-way store (*gp :- v): no acknowledgement travels back;
// the target's store counter observes arrival (WaitStores).
func (p *Proc) Store(gp GPF, v float64) {
	if !p.remote(gp.PC, machine.CntRemoteWrite) {
		*p.at(gp) = v
		p.stores.Advance(p.T, 1)
		return
	}
	p.ep.RequestShort(p.T, gp.PC, p.w.hStore, gp.words(math.Float64bits(v), 0))
}

// AtomicAdd issues a split-phase atomic read-modify-write (*gp += v): the
// addition executes atomically at the owning processor (AM handlers run to
// completion) and the acknowledgement is observed by Sync. This is the
// Split-C idiom behind `atomic(foo, ...)` used by the Water application's
// remote force accumulation.
func (p *Proc) AtomicAdd(gp GPF, v float64) {
	if !p.remote(gp.PC, machine.CntRemoteWrite) {
		*p.at(gp) += v
		return
	}
	p.issued++
	id := p.reqs.Add(&landing{done: &p.completed})
	p.ep.RequestShort(p.T, gp.PC, p.w.hAtomicAdd, gp.words(math.Float64bits(v), id))
}

// Sync blocks until all of this processor's outstanding split-phase
// operations have completed (Split-C's sync()).
func (p *Proc) Sync() {
	p.T.Charge(machine.CatRuntime, completeCost)
	p.ep.Await(p.T, &p.completed, p.issued)
}

// Outstanding reports the number of incomplete split-phase operations.
func (p *Proc) Outstanding() int { return int(p.issued - p.completed.Value()) }

// --- bulk transfers ----------------------------------------------------------

// BulkRead synchronously copies a remote vector into dst
// (bulk_read(&lA, gpA, n)). Lengths must match.
func (p *Proc) BulkRead(dst []float64, gp GVF) {
	if len(dst) != gp.Len {
		panic("splitc: BulkRead length mismatch")
	}
	if !p.remote(gp.PC, machine.CntRemoteRead) {
		copy(dst, p.vec(gp))
		p.T.Charge(machine.CatRuntime, time.Duration(len(dst)*8)*p.T.Cfg().MemCopyPerByte)
		return
	}
	want := p.done.Value() + 1
	id := p.reqs.Add(&landing{vdst: dst, done: &p.done})
	p.ep.RequestShort(p.T, gp.PC, p.w.hBulkReadReq, gp.words(id))
	p.ep.Await(p.T, &p.done, want)
}

// BulkWrite synchronously copies src into a remote vector
// (bulk_write(gpA, &lA, n)).
func (p *Proc) BulkWrite(gp GVF, src []float64) {
	if len(src) != gp.Len {
		panic("splitc: BulkWrite length mismatch")
	}
	if !p.remote(gp.PC, machine.CntRemoteWrite) {
		copy(p.vec(gp), src)
		p.T.Charge(machine.CatRuntime, time.Duration(len(src)*8)*p.T.Cfg().MemCopyPerByte)
		return
	}
	want := p.done.Value() + 1
	id := p.reqs.Add(&landing{done: &p.done})
	payload := encodeF64(p.T, src)
	p.ep.RequestBulk(p.T, gp.PC, p.w.hBulkWriteReq, payload, gp.words(id))
	p.ep.Await(p.T, &p.done, want)
}

// BulkGet issues a split-phase bulk read; completion is observed by Sync.
func (p *Proc) BulkGet(dst []float64, gp GVF) {
	if len(dst) != gp.Len {
		panic("splitc: BulkGet length mismatch")
	}
	if !p.remote(gp.PC, machine.CntRemoteRead) {
		copy(dst, p.vec(gp))
		p.T.Charge(machine.CatRuntime, time.Duration(len(dst)*8)*p.T.Cfg().MemCopyPerByte)
		return
	}
	p.issued++
	id := p.reqs.Add(&landing{vdst: dst, done: &p.completed})
	p.ep.RequestShort(p.T, gp.PC, p.w.hBulkReadReq, gp.words(id))
}

// BulkStore issues a one-way bulk store; the target's store counter advances
// by the element count on arrival.
func (p *Proc) BulkStore(gp GVF, src []float64) {
	if len(src) != gp.Len {
		panic("splitc: BulkStore length mismatch")
	}
	if !p.remote(gp.PC, machine.CntRemoteWrite) {
		copy(p.vec(gp), src)
		p.T.Charge(machine.CatRuntime, time.Duration(len(src)*8)*p.T.Cfg().MemCopyPerByte)
		p.stores.Advance(p.T, uint64(len(src)))
		return
	}
	payload := encodeF64(p.T, src)
	p.ep.RequestBulk(p.T, gp.PC, p.w.hBulkStore, payload, gp.words(0))
}

// WaitStores blocks until at least n store values have landed at this node.
func (p *Proc) WaitStores(n int) {
	p.T.Charge(machine.CatRuntime, completeCost)
	p.ep.Await(p.T, &p.stores, uint64(max(n, 0)))
}

// --- barrier ------------------------------------------------------------------

// Barrier blocks until every processor has entered the barrier. It is the
// Split-C barrier(): a central counter on node 0 plus a release broadcast.
func (p *Proc) Barrier() {
	target := p.released.Value() + 1
	p.T.Charge(machine.CatRuntime, issueCost)
	p.ep.RequestShort(p.T, 0, p.w.hBarrierArrive, [4]uint64{})
	p.ep.Await(p.T, &p.released, target)
}

func (p *Proc) node() *machine.Node { return p.w.m.Node(p.me) }
