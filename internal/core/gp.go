package core

import (
	"encoding/binary"
	"math"
	"time"

	"repro/internal/am"
	"repro/internal/machine"
	"repro/internal/threads"
)

// GPF64 is a CC++ global pointer to a double. The front-end translates
// dereferences into RMIs; the runtime optimizes accesses to simple data
// types into small request/reply active messages with no marshalling (§6:
// "accesses to simple data types through global pointers are optimized
// using small request/reply active messages"). The receiver still services
// the access on a fresh thread (Table 4's GP 2-Word R/W row: 1 create,
// 2 switches), because a deref may touch data a local computation holds.
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

// word and setWord move the element at off of a part resolved for a GP
// access — an 8-byte one, which nodeRT.part checked — in its wire form.
func (n *nodeRT) word(part DistPart, off uint64) uint64 {
	n.distBuf = part.AppendElem(int(off), n.distBuf[:0])
	return binary.LittleEndian.Uint64(n.distBuf)
}

func (n *nodeRT) setWord(part DistPart, off, w uint64) {
	n.distBuf = binary.LittleEndian.AppendUint64(n.distBuf[:0], w)
	part.SetElem(int(off), n.distBuf)
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

// gpReq is the sender-side record of one in-flight GP access; the message
// words carry its slot in the node's gpPending table.
type gpReq struct {
	comp *completion
	dst  *float64 // local landing slot for reads
}

// GP message word layouts (seg and off name the double in the owner's array
// table):
//
//	gp.read:       A = [reqID, seg, off]
//	gp.read.reply: A = [bits, reqID]
//	gp.write:      A = [bits, seg, off, reqID]
//	gp.ack:        A = [reqID]
func (rt *Runtime) registerGPHandlers() {
	rt.hGPReadReply = rt.net.Register("cc.gp.read.reply", func(t *threads.Thread, m am.Msg) {
		n := rt.nodes[m.Dst]
		rq := n.gpPending.Take("GP", m.Dst, m.Src, m.A[1])
		lockPair(t)
		t.Charge(machine.CatRuntime, gpCompleteCost)
		*rq.dst = math.Float64frombits(m.A[0])
		rt.complete(t, rq.comp)
	})
	// GP accesses use the runtime's optimized wire path — "small
	// request/reply active messages" with no marshalling (§6) — but the
	// access itself still runs on a fresh thread at the owner, because a
	// deref may touch data an interrupted local computation holds (Table 4's
	// GP 2-Word R/W row: 1 create, 2 switches). The words are checked here,
	// before the spawn.
	rt.hGPRead = rt.net.Register("cc.gp.read", func(t *threads.Thread, m am.Msg) {
		n := rt.nodes[m.Dst]
		lockPair(t)
		src, reqID, off := m.Src, m.A[0], m.A[2]
		part := n.part("GP", reqID, src, m.A[1], off, true)
		t.Spawn("gp.read", func(t2 *threads.Thread) {
			t2.Charge(machine.CatRuntime, gpServeCost)
			n.send(t2, src, rt.hGPReadReply, [4]uint64{n.word(part, off), reqID}, nil)
		})
	})
	rt.hGPAck = rt.net.Register("cc.gp.ack", func(t *threads.Thread, m am.Msg) {
		n := rt.nodes[m.Dst]
		rq := n.gpPending.Take("GP", m.Dst, m.Src, m.A[0])
		lockPair(t)
		t.Charge(machine.CatRuntime, gpCompleteCost)
		rt.complete(t, rq.comp)
	})
	rt.hGPWrite = rt.net.Register("cc.gp.write", func(t *threads.Thread, m am.Msg) {
		n := rt.nodes[m.Dst]
		lockPair(t)
		src, bits, off, reqID := m.Src, m.A[0], m.A[2], m.A[3]
		part := n.part("GP", reqID, src, m.A[1], off, true)
		t.Spawn("gp.write", func(t2 *threads.Thread) {
			t2.Charge(machine.CatRuntime, gpServeCost)
			n.setWord(part, off, bits)
			n.send(t2, src, rt.hGPAck, [4]uint64{reqID}, nil)
		})
	})
}

// ReadF64 dereferences a global pointer to a double (lx = *gp). Local
// pointers pay only the locality check; remote ones perform the small
// request/reply RMI.
func (rt *Runtime) ReadF64(t *threads.Thread, gp GPF64) float64 {
	n := rt.nodeOf(t)
	cfg := t.Cfg()
	if int(gp.node) == n.node.ID {
		// Local data accessed through a global pointer still pays the
		// runtime's thread-safe locality check and indirection — the
		// em3d-base effect at low remote percentages.
		n.node.Acct.Count(machine.CntLocalDeref, 1)
		lockPair(t)
		t.Charge(machine.CatRuntime, cfg.LocalGPDeref)
		return math.Float64frombits(n.word(n.local(gp), uint64(gp.off)))
	}
	n.node.Acct.Count(machine.CntRemoteRead, 1)
	lockPair(t)
	t.Charge(machine.CatRuntime, cfg.StubLookup+gpIssueCost)
	var dst float64
	rq := &gpReq{comp: &completion{mode: rt.syncMode()}, dst: &dst}
	id := n.gpPending.Add(rq)
	lockPair(t)
	n.send(t, int(gp.node), rt.hGPRead, [4]uint64{id, uint64(gp.seg), uint64(gp.off)}, nil)
	rt.waitComp(t, n, rq.comp)
	return dst
}

// WriteF64 writes through a global pointer to a double (*gp = lx), waiting
// for the remote acknowledgement.
func (rt *Runtime) WriteF64(t *threads.Thread, gp GPF64, v float64) {
	n := rt.nodeOf(t)
	cfg := t.Cfg()
	if int(gp.node) == n.node.ID {
		n.node.Acct.Count(machine.CntLocalDeref, 1)
		lockPair(t)
		t.Charge(machine.CatRuntime, cfg.LocalGPDeref)
		n.setWord(n.local(gp), uint64(gp.off), math.Float64bits(v))
		return
	}
	n.node.Acct.Count(machine.CntRemoteWrite, 1)
	lockPair(t)
	t.Charge(machine.CatRuntime, cfg.StubLookup+gpIssueCost)
	rq := &gpReq{comp: &completion{mode: rt.syncMode()}}
	id := n.gpPending.Add(rq)
	lockPair(t)
	n.send(t, int(gp.node), rt.hGPWrite,
		[4]uint64{math.Float64bits(v), uint64(gp.seg), uint64(gp.off), id}, nil)
	rt.waitComp(t, n, rq.comp)
}
