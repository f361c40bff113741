package core

import (
	"fmt"
	"math"
	"sync"
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
type GPF64 struct {
	node int32
	h    uint64   // wire name: index in the process's f64 handle registry
	ptr  *float64 // local fast path; only the owning node dereferences it
}

// f64Reg is the process-wide registry giving float64 locations stable wire
// handles — the stand-in for the raw data address a 1997 sender packed into
// the message words. Handles are allocated in registration order, so SPMD
// programs that build their global data structures identically in every
// address space (the same discipline real Split-C/CC++ images follow) get
// matching handles on every shard of the netlive backend; the owning node
// resolves the handle in its own registry copy.
//
// Registered pointers stay pinned for the life of the process (as a real
// image's global data segment would): handles must remain resolvable for
// later machines in the same process. Re-registering the same location is
// free after the first time — the common construct-a-GPF64-per-dereference
// idiom (em3d's inner loop) takes only the read lock.
var f64Reg struct {
	mu   sync.RWMutex
	ptrs []*float64
	ids  map[*float64]uint64
}

func registerF64(p *float64) uint64 {
	f64Reg.mu.RLock()
	h, ok := f64Reg.ids[p]
	f64Reg.mu.RUnlock()
	if ok {
		return h
	}
	f64Reg.mu.Lock()
	defer f64Reg.mu.Unlock()
	if f64Reg.ids == nil {
		f64Reg.ids = make(map[*float64]uint64)
	}
	if h, ok := f64Reg.ids[p]; ok {
		return h
	}
	h = uint64(len(f64Reg.ptrs))
	f64Reg.ptrs = append(f64Reg.ptrs, p)
	f64Reg.ids[p] = h
	return h
}

func resolveF64(h uint64) *float64 {
	f64Reg.mu.RLock()
	defer f64Reg.mu.RUnlock()
	if h >= uint64(len(f64Reg.ptrs)) {
		panic(fmt.Sprintf("core: unresolvable global-pointer handle %d (registry has %d; symmetric setup across shards required)",
			h, len(f64Reg.ptrs)))
	}
	return f64Reg.ptrs[h]
}

// NewGPF64 builds a global pointer to a double owned by the given node.
// Programs obtain these through data-structure setup (the translator would
// type them); only the owning node's runtime dereferences ptr.
func NewGPF64(node int, ptr *float64) GPF64 {
	return GPF64{node: int32(node), h: registerF64(ptr), ptr: ptr}
}

// NodeID returns the owning node.
func (g GPF64) NodeID() int { return int(g.node) }

// Fixed GP-access runtime costs, calibrated to land Table 4's GP 2-Word R/W
// Runtime column near its measured 16 µs (3 µs of which is the stub lookup).
const (
	gpIssueCost    = 5 * time.Microsecond // sender-side deref bookkeeping
	gpServeCost    = 4 * time.Microsecond // receiver-side access + reply prep
	gpCompleteCost = 4 * time.Microsecond // landing the value / the ack
)

// gpReq is the sender-side record of one in-flight GP access; the message
// words carry its slot in the node's gpPending table and the target's handle,
// which the owner resolves in its registry.
type gpReq struct {
	comp *completion
	dst  *float64 // local landing slot for reads
}

// GP message word layouts:
//
//	gp.read:       A = [reqID, handle]
//	gp.read.reply: A = [bits, reqID]
//	gp.write:      A = [bits, handle, reqID, wantAck]
//	gp.ack:        A = [reqID]
func (rt *Runtime) registerGPHandlers() {
	rt.hGPReadReply = rt.net.Register("cc.gp.read.reply", func(t *threads.Thread, m am.Msg) {
		n := rt.nodes[m.Dst]
		rq := n.gpPending.take("GP", m.Dst, m.Src, m.A[1])
		lockPair(t, &n.commLock)
		chargeRuntime(t, gpCompleteCost)
		*rq.dst = math.Float64frombits(m.A[0])
		rt.complete(t, rq.comp)
	})
	// GP accesses use the runtime's optimized wire path — "small
	// request/reply active messages" with no marshalling (§6) — but the
	// access itself still runs on a fresh thread at the owner, because a
	// deref may touch data an interrupted local computation holds (Table 4's
	// GP 2-Word R/W row: 1 create, 2 switches).
	rt.hGPRead = rt.net.Register("cc.gp.read", func(t *threads.Thread, m am.Msg) {
		n := rt.nodes[m.Dst]
		lockPair(t, &n.commLock)
		src := m.Src
		reqID := m.A[0]
		handle := m.A[1]
		t.Spawn("gp.read", func(t2 *threads.Thread) {
			chargeRuntime(t2, gpServeCost)
			bits := math.Float64bits(*resolveF64(handle))
			n.send(t2, src, rt.hGPReadReply, [4]uint64{bits, reqID}, nil)
		})
	})
	rt.hGPAck = rt.net.Register("cc.gp.ack", func(t *threads.Thread, m am.Msg) {
		n := rt.nodes[m.Dst]
		rq := n.gpPending.take("GP", m.Dst, m.Src, m.A[0])
		lockPair(t, &n.commLock)
		chargeRuntime(t, gpCompleteCost)
		rt.complete(t, rq.comp)
	})
	rt.hGPWrite = rt.net.Register("cc.gp.write", func(t *threads.Thread, m am.Msg) {
		n := rt.nodes[m.Dst]
		lockPair(t, &n.commLock)
		src := m.Src
		bits := m.A[0]
		handle := m.A[1]
		reqID := m.A[2]
		wantAck := m.A[3] != 0
		t.Spawn("gp.write", func(t2 *threads.Thread) {
			chargeRuntime(t2, gpServeCost)
			*resolveF64(handle) = math.Float64frombits(bits)
			if wantAck {
				n.send(t2, src, rt.hGPAck, [4]uint64{reqID}, nil)
			}
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
		lockPair(t, &n.rtLock)
		chargeRuntime(t, cfg.LocalGPDeref)
		return *gp.ptr
	}
	n.node.Acct.Count(machine.CntRemoteRead, 1)
	lockPair(t, &n.rtLock)
	chargeRuntime(t, cfg.StubLookup+gpIssueCost)
	mode := modeBlock
	if rt.opts.SpinSenders {
		mode = modeSpin
	}
	var dst float64
	rq := &gpReq{comp: &completion{mode: mode}, dst: &dst}
	id := n.gpPending.add(rq)
	lockPair(t, &n.commLock)
	n.send(t, int(gp.node), rt.hGPRead, [4]uint64{id, gp.h}, nil)
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
		lockPair(t, &n.rtLock)
		chargeRuntime(t, cfg.LocalGPDeref)
		*gp.ptr = v
		return
	}
	n.node.Acct.Count(machine.CntRemoteWrite, 1)
	lockPair(t, &n.rtLock)
	chargeRuntime(t, cfg.StubLookup+gpIssueCost)
	mode := modeBlock
	if rt.opts.SpinSenders {
		mode = modeSpin
	}
	rq := &gpReq{comp: &completion{mode: mode}}
	id := n.gpPending.add(rq)
	lockPair(t, &n.commLock)
	n.send(t, int(gp.node), rt.hGPWrite,
		[4]uint64{math.Float64bits(v), gp.h, id, 1}, nil)
	rt.waitComp(t, n, rq.comp)
}
