package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/am"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/threads"
)

// Element accesses of a distributed array (mpmd.Dist) and of a global pointer
// to a double (gp.go's GPF64) take one wire path — "small request/reply
// active messages" with no marshalling (§6), Split-C's get and put — for any
// element type the typed layer can encode: one request handler, one reply
// handler, the element riding in the spare message words when its encoding
// fits them and as the payload of the same two messages when it does not.
// The two kinds differ in one request bit. The owner serves a Dist access
// inline in the polling thread: the parts are plain arrays no computation
// holds a lock on, as the non-threaded mailbox method that served these
// accesses before did. A GP access sets distThread and is served on a fresh
// thread (Table 4's GP 2-Word R/W row: 1 create, 2 switches), because a
// deref may touch data an interrupted local computation holds.
//
// Word layouts:
//
//	dist.req:   A = [reqID | distPut | distThread, dist, offset, element]   payload: a put's element when it is not one word
//	dist.reply: A = [element × 3, reqID]                                    payload: a get's element when it outgrows three words
const (
	distPut        = 1 << 32 // request flag, above the 32-bit request ID: the access is a put
	distThread     = 1 << 33 // request flag: serve on a fresh thread (a GP access; one word, no payload)
	distReplyBytes = 3 * 8   // a get's element travels in the reply words up to this encoded size
	distReqBytes   = 8       // a put's element travels in the request word at exactly this encoded size
	distSlots      = 16      // accesses a node may have in flight before a split-phase one waits
)

// DistPart is the owner-side view of one node's part of a distributed array:
// what the request handler needs to serve an access without knowing the
// element type. Calls come from the owning node's execution context only.
type DistPart interface {
	// Len is the number of elements in the part; every offset that arrives
	// in a message is checked against it.
	Len() int
	// AppendElem appends the encoding of the element at off to dst.
	AppendElem(off int, dst []byte) []byte
	// SetElem decodes b into the element at off without retaining b.
	SetElem(off int, b []byte)
}

// AddDist registers a distributed array and returns its wire name: its
// segment in the runtime's array table, assigned in registration order, so
// every program image must create its arrays in the same order (AddF64 adds
// the arrays global pointers name to the same table). size is the
// encoded byte count of an element when every value has the same one, 0 when
// it varies; parts[i] is node i's part, nil where the node holds none.
// Setup time only.
func (rt *Runtime) AddDist(size int, parts []DistPart) int {
	if rt.started.Load() {
		panic("core: AddDist after Run started: distributed arrays are placed at setup time")
	}
	if len(parts) != len(rt.nodes) {
		panic(fmt.Sprintf("core: AddDist with %d parts on a %d-node machine", len(parts), len(rt.nodes)))
	}
	rt.distSizes = append(rt.distSizes, size)
	for i, n := range rt.nodes {
		n.distParts = append(n.distParts, parts[i])
	}
	return len(rt.distSizes) - 1
}

// DistOp is the sender-side record of one element access: completion,
// landing bytes and round-trip stamp in one value, so the typed layer embeds
// it in its future and a split-phase access costs that one allocation. The
// message carries only the record's slot in the node's distPending table.
type DistOp struct {
	rt   *Runtime
	comp completion
	t0   time.Duration // send instant, when the node keeps wall-clock metrics
	read bool
	size int // the array's encoded element size (0: varies)
	b    [distReplyBytes]byte
	p    []byte
}

// inWords reports whether a get's element of the given encoded size travels
// in the reply words.
func inWords(size int) bool { return 0 < size && size <= distReplyBytes }

// Scratch returns the record's byte buffer, emptied, for the caller to
// encode a put's element into and hand to DistWrite, which keeps it (grown,
// if the encoding outgrew it) for the record's next use.
func (op *DistOp) Scratch() []byte {
	if op.p == nil {
		op.p = op.b[:0]
	}
	return op.p[:0]
}

// Bytes returns the encoded element a completed get landed, valid until the
// record's next use.
func (op *DistOp) Bytes() []byte {
	if inWords(op.size) {
		return op.b[:op.size]
	}
	return op.p
}

// Wait blocks until the access has completed at the owner and its reply has
// landed here.
func (op *DistOp) Wait(t *threads.Thread) { op.rt.waitComp(t, op.rt.nodeOf(t), &op.comp) }

// Done reports (without blocking) whether the reply has landed.
func (op *DistOp) Done() bool { return op.comp.landed() }

// Reset readies a completed record for another access (pooled records of
// the synchronous accessors); buffers keep their capacity.
func (op *DistOp) Reset() { op.comp.reset() }

// DistLocal accounts an access to an element the calling node owns — the
// typed layer dereferences its own part directly — and completes op, the
// record of a split-phase one (nil for a synchronous access).
func (rt *Runtime) DistLocal(t *threads.Thread, op *DistOp) {
	rt.nodeOf(t).node.Acct.Count(machine.CntLocalDeref, 1)
	if op != nil {
		op.rt = rt
		op.comp.mode = modeFuture
		rt.complete(t, &op.comp)
	}
}

// DistRead starts a get of the element at offset off of array dist's part on
// node. With wait it returns once the element has landed (op.Bytes);
// without, op.Wait joins later.
//
//mpmd:hotpath
func (rt *Runtime) DistRead(t *threads.Thread, op *DistOp, node, dist, off int, wait bool) {
	rt.nodeOf(t).node.Acct.Count(machine.CntRemoteRead, 1)
	rt.distSend(t, op, node, [4]uint64{0, uint64(dist), uint64(off)}, nil, wait)
}

// DistWrite starts a put of the encoded element enc, built on op.Scratch();
// completion means the owner has applied it. enc is on the wire before the
// call returns.
//
//mpmd:hotpath
func (rt *Runtime) DistWrite(t *threads.Thread, op *DistOp, node, dist, off int, enc []byte, wait bool) {
	rt.nodeOf(t).node.Acct.Count(machine.CntRemoteWrite, 1)
	op.p = enc[:0]
	a := [4]uint64{distPut, uint64(dist), uint64(off)}
	if rt.distSizes[dist] == distReqBytes {
		a[3] = binary.LittleEndian.Uint64(enc)
		enc = nil
	}
	rt.distSend(t, op, node, a, enc, wait)
}

// distSend is the common sender path of the Dist and GP accessors, priced as
// a GP access (plus the copy of a payload-form element).
//
//mpmd:hotpath
func (rt *Runtime) distSend(t *threads.Thread, op *DistOp, node int, a [4]uint64, payload []byte, wait bool) {
	n := rt.nodeOf(t)
	cfg := t.Cfg()
	lockPair(t)
	t.Charge(machine.CatRuntime, cfg.StubLookup+gpIssueCost+time.Duration(len(payload))*cfg.MemCopyPerByte)
	op.rt = rt
	op.read = a[0]&distPut == 0
	op.size = rt.distSizes[a[1]]
	op.comp.mode = modeFuture
	if wait {
		op.comp.mode = rt.syncMode()
	}
	// Split-phase accesses are bounded, as hardware's request table is and
	// as Active Messages bounds a node's outstanding requests with credits:
	// out of slots, the issuer awaits the next reply, which frees one. A
	// synchronous access's thread is its own credit: it cannot issue again
	// until the access returns.
	for !wait && n.distPending.InFlight() >= distSlots {
		n.ep.Await(t, &n.distFreed, n.distFreed.Value()+1)
	}
	if n.node.Met != nil {
		op.t0 = n.node.M.Now()
	}
	a[0] |= n.distPending.Add(op)
	lockPair(t)
	n.send(t, node, rt.hDistReq, a, payload)
	if wait {
		rt.waitComp(t, n, &op.comp)
	}
}

func (rt *Runtime) registerDistHandlers() {
	rt.hDistReq = rt.net.Register("cc.dist.req", rt.handleDistReq)
	rt.hDistReply = rt.net.Register("cc.dist.reply", rt.handleDistReply)
}

// part resolves the words (segment, offset) of a request from node src —
// kind and reqID name it — to this node's part holding the element: the one
// lookup of every location in the array table, a dist element or a GP
// double. Every word may come from another process, so each is checked before
// it indexes anything; a GP access (word) also needs a segment of 8-byte
// elements.
//
//mpmd:hotpath
func (n *nodeRT) part(kind string, reqID uint64, src int, seg, off uint64, word bool) DistPart {
	if seg >= uint64(len(n.distParts)) || n.distParts[seg] == nil {
		panic(fmt.Sprintf("core: node %d %s request %d from node %d: unknown segment %d (symmetric setup across shards required)", n.node.ID, kind, reqID, src, seg))
	}
	part := n.distParts[seg]
	if off >= uint64(part.Len()) {
		panic(fmt.Sprintf("core: node %d %s request %d from node %d: offset %d outside segment %d's part of %d elements", n.node.ID, kind, reqID, src, off, seg, part.Len()))
	}
	if word && n.rt.distSizes[seg] != distReqBytes {
		panic(fmt.Sprintf("core: node %d %s request %d from node %d: segment %d holds %d-byte elements (0: varies), not words", n.node.ID, kind, reqID, src, seg, n.rt.distSizes[seg]))
	}
	return part
}

// handleDistReq checks one access at the owner and serves it, inline or,
// for a GP access, on a fresh thread. Every word may come from another
// process: segment, offset and the element's wire form are checked before
// anything is indexed or spawned.
//
//mpmd:hotpath
func (rt *Runtime) handleDistReq(t *threads.Thread, m am.Msg) {
	n := rt.nodes[m.Dst]
	lockPair(t)
	reqID, dist, threaded := m.A[0]&(distPut-1), m.A[1], m.A[0]&distThread != 0
	part := n.part("dist", reqID, m.Src, dist, m.A[2], threaded)
	size := rt.distSizes[dist]
	switch b := m.Payload; {
	case threaded && len(b) > 0:
		panic(fmt.Sprintf("core: node %d dist request %d from node %d: a threaded access carries a %d-byte payload", m.Dst, reqID, m.Src, len(b)))
	case m.A[0]&distPut == 0, size == distReqBytes && len(b) == 0: // a get, or a put in the words
	case size == distReqBytes || len(b) == 0 || (size > 0 && len(b) != size):
		panic(fmt.Sprintf("core: node %d dist request %d from node %d: put carries a %d-byte element, dist %d's encode to %d (0: varies)", m.Dst, reqID, m.Src, len(b), dist, size))
	}
	if threaded {
		rt.serveOnThread(t, n, m.Src, m.A, part)
		return
	}
	rt.serveDist(t, n, m.Src, m.A, m.Payload, part)
}

// serveOnThread serves a checked GP access on a fresh thread.
//
//mpmd:coldpath a GP access is served on its own thread by design (Table 4's create and switches); Dist accesses are served inline
func (rt *Runtime) serveOnThread(t *threads.Thread, n *nodeRT, src int, a [4]uint64, part DistPart) {
	name := "gp.read"
	if a[0]&distPut != 0 {
		name = "gp.write"
	}
	t.Spawn(name, func(t2 *threads.Thread) { rt.serveDist(t2, n, src, a, nil, part) })
}

// serveDist applies a checked access to the element at offset a[2] of part
// and answers node src. payload is a put's element when it is not one word,
// valid only while the request handler runs.
//
//mpmd:hotpath
func (rt *Runtime) serveDist(t *threads.Thread, n *nodeRT, src int, a [4]uint64, payload []byte, part DistPart) {
	size, off := rt.distSizes[a[1]], int(a[2])
	r := [4]uint64{3: a[0] & (distPut - 1)}
	var out []byte
	if a[0]&distPut != 0 {
		t.Charge(machine.CatRuntime, gpServeCost+time.Duration(len(payload))*t.Cfg().MemCopyPerByte)
		if len(payload) == 0 {
			n.distBuf = binary.LittleEndian.AppendUint64(n.distBuf[:0], a[3])
			payload = n.distBuf
		}
		part.SetElem(off, payload)
	} else {
		n.distBuf = part.AppendElem(off, n.distBuf[:0])
		if inWords(size) {
			for i := 0; i < size; i += 8 {
				r[i/8] = binary.LittleEndian.Uint64(n.distBuf[i:])
			}
		} else {
			out = n.distBuf
		}
		t.Charge(machine.CatRuntime, gpServeCost+time.Duration(len(out))*t.Cfg().MemCopyPerByte)
	}
	n.send(t, src, rt.hDistReply, r, out)
}

// handleDistReply lands a get's element, or a put's acknowledgement, at the
// initiator.
//
//mpmd:hotpath
func (rt *Runtime) handleDistReply(t *threads.Thread, m am.Msg) {
	n := rt.nodes[m.Dst]
	op := n.distPending.Take("dist", m.Dst, m.Src, m.A[3])
	n.distFreed.Advance(t, 1)
	if op.t0 > 0 {
		if met := n.node.Met; met != nil {
			met.ObserveDur(metrics.HstRMILatency, n.node.M.Now()-op.t0)
		}
	}
	lockPair(t)
	t.Charge(machine.CatRuntime, gpCompleteCost+time.Duration(len(m.Payload))*t.Cfg().MemCopyPerByte)
	if op.read {
		switch b := m.Payload; {
		case inWords(op.size) && len(b) == 0:
			for i := 0; i < op.size; i += 8 {
				binary.LittleEndian.PutUint64(op.b[i:], m.A[i/8])
			}
		case inWords(op.size) || len(b) == 0 || (op.size > 0 && len(b) != op.size):
			panic(fmt.Sprintf("core: node %d dist reply from node %d for request %d: a %d-byte element, the dist's encode to %d (0: varies)", m.Dst, m.Src, m.A[3], len(b), op.size))
		default:
			op.p = op.p[:0]
			op.p = append(op.p, b...)
		}
	}
	rt.complete(t, &op.comp)
}
