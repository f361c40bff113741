package core

import (
	"encoding/binary"
	"math"
	"sync"
	"time"

	"repro/internal/machine"
	"repro/internal/threads"
)

// GPF64 is a CC++ global pointer to a double. The front-end translates
// dereferences into RMIs; the runtime optimizes accesses to simple data
// types into small request/reply active messages with no marshalling (§6):
// a remote access is a one-word Dist access the owner serves on a fresh
// thread (dist.go), and this file is its float64 front end.
//
// The pointer is words — the owning node, a segment of the runtime's array
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
	dp := make([]DistPart, len(parts))
	for i, p := range parts {
		if p != nil {
			dp[i] = f64Part(p)
		}
	}
	return rt.AddDist(distReqBytes, dp)
}

// f64Part is a part registered by AddF64: a double travels as its IEEE bits,
// one word.
type f64Part []float64

func (p f64Part) Len() int { return len(p) }
func (p f64Part) AppendElem(off int, dst []byte) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(p[off]))
}
func (p f64Part) SetElem(off int, b []byte) {
	p[off] = math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// local resolves a global pointer to this node's own memory, checked like
// the words of a remote access.
func (n *nodeRT) local(gp GPF64) DistPart {
	return n.part("GP", 0, n.node.ID, uint64(gp.seg), uint64(gp.off), true)
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
	rt.gpAccess(t, gp, [4]uint64{0: distPut, 3: math.Float64bits(v)})
}

// gpAccess performs one GP access — a put when a[0] has distPut, the double's
// bits in a[3] — and returns the element's bits (a read's double).
func (rt *Runtime) gpAccess(t *threads.Thread, gp GPF64, a [4]uint64) uint64 {
	n := rt.nodeOf(t)
	put := a[0]&distPut != 0
	if int(gp.node) == n.node.ID {
		// Local data accessed through a global pointer still pays the
		// runtime's thread-safe locality check and indirection — the
		// em3d-base effect at low remote percentages.
		n.node.Acct.Count(machine.CntLocalDeref, 1)
		lockPair(t)
		t.Charge(machine.CatRuntime, t.Cfg().LocalGPDeref)
		part := n.local(gp)
		if put {
			n.distBuf = binary.LittleEndian.AppendUint64(n.distBuf[:0], a[3])
			part.SetElem(gp.off, n.distBuf)
			return 0
		}
		n.distBuf = part.AppendElem(gp.off, n.distBuf[:0])
		return binary.LittleEndian.Uint64(n.distBuf)
	}
	if put {
		n.node.Acct.Count(machine.CntRemoteWrite, 1)
	} else {
		n.node.Acct.Count(machine.CntRemoteRead, 1)
	}
	op := gpOps.Get().(*DistOp)
	a[0] |= distThread
	a[1], a[2] = uint64(gp.seg), uint64(gp.off)
	rt.distSend(t, op, int(gp.node), a, nil, true)
	w := binary.LittleEndian.Uint64(op.b[:])
	op.Reset()
	gpOps.Put(op)
	return w
}
