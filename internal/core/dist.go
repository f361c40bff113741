package core

import (
	"encoding/binary"
	"math"
	"sync"
	"time"

	"repro/internal/am"
	"repro/internal/machine"
	"repro/internal/threads"
)

// Element accesses of a distributed array (mpmd.Dist) and of a global pointer
// to a double (GPF64) are remote-memory accesses (am.Mem), Split-C's get and
// put: one request and one reply active message, "small request/reply active
// messages" with no marshalling (§6). This file is the runtime's front end to
// that protocol: its price (registerHandlers), its records and the
// float64 front end a global pointer is. The owner serves a Dist access
// inline in the polling thread: the parts are plain arrays no computation
// holds a lock on, as the non-threaded mailbox method that served these
// accesses before did. A GP access sets am.OpThread and is served on a fresh
// thread (Table 4's GP 2-Word R/W row: 1 create, 2 switches), because a deref
// may touch data an interrupted local computation holds.
const distSlots = 16 // accesses a node may have in flight before a split-phase one waits

// AddDist registers a distributed array and returns its wire name: its
// segment in the runtime's array table, assigned in registration order, so
// every program image must create its arrays in the same order (AddF64 adds
// the arrays global pointers name to the same table). size is the
// encoded byte count of an element when every value has the same one, 0 when
// it varies; parts[i] is node i's part, nil where the node holds none.
// Setup time only.
func (rt *Runtime) AddDist(size int, parts []am.Part) int {
	if rt.started.Load() {
		panic("core: AddDist after Run started: distributed arrays are placed at setup time")
	}
	return rt.mem.Add(size, parts)
}

// DistOp is the sender-side record of one element access: the request's
// record (Future, whose Wait and Done join the access) and the protocol's
// landing record in one value, so the typed layer embeds it in its future
// and a split-phase access costs that one allocation. The typed layer
// encodes a put's element on Scratch and lands a get's through Into, or
// reads it from Bytes.
type DistOp struct {
	am.Op
	Future
}

// Reset readies a completed record for another access (pooled records of
// the synchronous accessors); buffers keep their capacity.
func (op *DistOp) Reset() { op.reset() }

// DistLocal accounts an access to an element the calling node owns — the
// typed layer dereferences its own part directly — and completes op, the
// record of a split-phase one (nil for a synchronous access).
func (rt *Runtime) DistLocal(t *threads.Thread, op *DistOp) {
	rt.nodeOf(t).node.Acct.Count(machine.CntLocalDeref, 1)
	if op != nil {
		op.rt, op.mode = rt, modeFuture
		rt.complete(t, &op.Future)
	}
}

// DistRead starts a get of the element at offset off of array dist's part on
// node. With wait it returns once the element has landed (op.Bytes);
// without, op.Wait joins later.
//
//mpmd:hotpath
func (rt *Runtime) DistRead(t *threads.Thread, op *DistOp, node, dist, off int, wait bool) {
	rt.distSend(t, op, node, [4]uint64{am.OpGet, uint64(dist), uint64(off)}, nil, wait)
}

// DistWrite starts a put of the encoded element enc, built on op.Scratch();
// completion means the owner has applied it. enc is on the wire before the
// call returns.
//
//mpmd:hotpath
func (rt *Runtime) DistWrite(t *threads.Thread, op *DistOp, node, dist, off int, enc []byte, wait bool) {
	rt.distSend(t, op, node, [4]uint64{am.OpPut, uint64(dist), uint64(off)}, enc, wait)
}

// distSend is the common sender path of the Dist and GP accessors: the
// record's count is what the protocol advances when the reply lands.
//
//mpmd:hotpath
func (rt *Runtime) distSend(t *threads.Thread, op *DistOp, node int, a [4]uint64, payload []byte, wait bool) {
	op.rt, op.mode = rt, modeFuture
	if wait {
		op.mode = rt.syncMode()
	}
	op.Op.Done, op.SV = &op.done, rt.handoff(&op.Future)
	rt.mem.Access(t, &op.Op, node, a, payload, wait)
}

// GPF64 is a CC++ global pointer to a double. The front-end translates
// dereferences into RMIs; the runtime optimizes accesses to simple data
// types into one-word remote-memory accesses the owner serves on a fresh
// thread. The pointer is words — the owning node, a segment of the runtime's array
// table (AddF64) and an offset into the owner's part — the stand-in for the
// data address a 1997 sender packed into the message words. The owner
// resolves them in its own table, so a pointer names the same double in
// every address space that registered its arrays in the same order.
type GPF64 struct {
	node, seg int32
	off       int
}

// NewGPF64 builds a global pointer to element off of node's part of segment
// seg (AddF64). Programs obtain these through data-structure setup (the
// translator would type them).
func NewGPF64(node, seg, off int) GPF64 {
	return GPF64{node: int32(node), seg: int32(seg), off: off}
}

// NodeID returns the owning node.
func (g GPF64) NodeID() int { return int(g.node) }

// AddF64 registers an array of doubles — parts[i] is node i's part, nil where
// it holds none — and returns its segment, for NewGPF64. It is AddDist with
// 8-byte elements: one table holds every array either kind of access names,
// numbered in registration order, so every program image registers its
// arrays in the same order. Setup time only.
func (rt *Runtime) AddF64(parts [][]float64) int {
	if rt.started.Load() {
		panic("core: AddF64 after Run started: arrays are placed at setup time")
	}
	return rt.mem.AddF64(parts)
}

// Fixed GP-access runtime costs, calibrated to land Table 4's GP 2-Word R/W
// Runtime column near its measured 16 µs (3 µs of which is the stub lookup).
const (
	gpIssueCost    = 5 * time.Microsecond // sender-side deref bookkeeping
	gpServeCost    = 4 * time.Microsecond // receiver-side access + reply prep
	gpCompleteCost = 4 * time.Microsecond // landing the value / the ack
)

// gpOps pools the sender-side records of remote GP accesses: an access is
// synchronous, so its thread returns the record as soon as the reply lands.
var gpOps = sync.Pool{New: func() any { return new(DistOp) }}

// ReadF64 dereferences a global pointer to a double (lx = *gp). Local
// pointers pay only the locality check; remote ones perform the small
// request/reply access.
func (rt *Runtime) ReadF64(t *threads.Thread, gp GPF64) float64 {
	return math.Float64frombits(rt.gpAccess(t, gp, [4]uint64{}))
}

// WriteF64 writes through a global pointer to a double (*gp = lx), waiting
// for the remote acknowledgement.
func (rt *Runtime) WriteF64(t *threads.Thread, gp GPF64, v float64) {
	rt.gpAccess(t, gp, [4]uint64{0: am.OpPut, 3: math.Float64bits(v)})
}

// gpAccess performs one GP access — a put when a[0] has am.OpPut, the
// double's bits in a[3] — and returns the element's bits (a read's double).
func (rt *Runtime) gpAccess(t *threads.Thread, gp GPF64, a [4]uint64) uint64 {
	n := rt.nodeOf(t)
	if int(gp.node) == n.node.ID {
		// Local data accessed through a global pointer still pays the
		// runtime's thread-safe locality check and indirection — the
		// em3d-base effect at low remote percentages.
		n.node.Acct.Count(machine.CntLocalDeref, 1)
		lockPair(t)
		t.Charge(machine.CatRuntime, t.Cfg().LocalGPDeref)
		x := &rt.mem.Local(n.node.ID, int(gp.seg), gp.off, 1)[0]
		if a[0]&am.OpPut != 0 {
			*x = math.Float64frombits(a[3])
		}
		return math.Float64bits(*x)
	}
	op := gpOps.Get().(*DistOp)
	a[0] |= am.OpThread
	a[1], a[2] = uint64(gp.seg), uint64(gp.off)
	rt.distSend(t, op, int(gp.node), a, nil, true)
	w := binary.LittleEndian.Uint64(op.Bytes())
	op.Reset()
	gpOps.Put(op)
	return w
}
