package am

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/threads"
)

// Remote memory is Split-C's get, put and store (Culler et al.), and what a
// CC++ global-pointer or distributed-array access is too: the paper prices
// both as "small request/reply active messages" with no marshalling (§6).
// Both runtimes use this one protocol — a symmetric table of segments, one
// checked lookup of every location a message names, the initiator's landing
// table, one request and one reply handler — as front ends that differ only
// in their Price. Word layouts:
//
//	mem.req:   A = [id | kind | OpThread | OpBulk, segment, offset, x]   payload: a put's elements unless one word
//	mem.reply: A = [element × 3, id]                                     payload: a get's elements unless in the words
//
// id is the initiator's landing slot (ReqTable); a store has none: it is
// one-way, and the owner advances a count instead of replying. x is a put's
// one 8-byte element, or under OpBulk the element count.
const (
	OpGet    = 0 << 32 // the access kind, in the two bits above the 32-bit id
	OpPut    = 1 << 32
	OpAdd    = 2 << 32 // atomic add, at the owner, of doubles
	OpStore  = 3 << 32 // a put without a reply: the owner advances Stores
	OpThread = 1 << 34 // serve on a fresh thread, not inline in the poll
	OpBulk   = 1 << 35 // x counts the elements, which travel as payload

	idMask     = 1<<32 - 1
	opKind     = 3 << 32
	wordBytes  = 8     // a put's element travels in the request word at exactly this size
	replyBytes = 3 * 8 // a get's element travels in the reply words up to this size
)

// Part is one node's part of a segment: what the owner needs to serve an
// access without knowing the element type. Calls come from the owning node's
// execution context only.
type Part interface {
	// Len is the number of elements in the part; every offset and count
	// that arrives in a message is checked against it.
	Len() int
	// AppendElem appends the encoding of the element at off to dst.
	AppendElem(off int, dst []byte) []byte
	// SetElem decodes b into the element at off without retaining b.
	SetElem(off int, b []byte)
}

// F64Part is a part of doubles, each travelling as its IEEE bits in one word.
// Only a segment of doubles takes an atomic add or a threaded access.
type F64Part []float64

func (p F64Part) Len() int { return len(p) }
func (p F64Part) AppendElem(off int, dst []byte) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(p[off]))
}
func (p F64Part) SetElem(off int, b []byte) {
	p[off] = math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Price is what one front end's accesses cost in its runtime, beyond what
// its net charges for their messages. Each step charges its fixed cost and
// its copy apart: at issue and serve the fixed cost first, at completion the
// copy first.
type Price struct {
	SyncOps                int           // lock operations charged at issue (twice), serve and completion
	Issue, Serve, Complete time.Duration // each step's fixed runtime cost
	// Slots bounds a node's split-phase accesses in flight, as hardware's
	// request table does: past it the issuer awaits a reply. 0: no bound.
	Slots int
}

// Mem is one runtime's remote memory over its Net.
type Mem struct {
	net          *Net
	p            Price
	hReq, hReply HandlerID
	sizes        []int // each segment's encoded element size (0: varies)
	nodes        []*memNode
}

// memNode is one node's side of the protocol, touched from the node's
// execution context only.
type memNode struct {
	parts   []Part // this node's part of every segment, nil where none
	pending ReqTable[Op]
	freed   Count // replies landed: an issuer out of slots awaits it
	stores  Count // elements stored here
	buf     []byte
}

// NewMem registers the protocol's two handlers on n for a front end that
// prices its accesses p. Set-up time only.
func NewMem(n *Net, p Price) *Mem {
	m := &Mem{net: n, p: p}
	for range n.eps {
		m.nodes = append(m.nodes, new(memNode))
	}
	m.hReq = n.Register("mem.req", m.request)
	m.hReply = n.Register("mem.reply", m.reply)
	return m
}

// Add registers a segment and returns its number: its place in registration
// order, so every program image registers its segments in the same order.
// size is the encoded byte count of an element when every value has the same
// one, 0 when it varies; parts[i] is node i's part, nil where it holds none.
// Set-up time only.
func (m *Mem) Add(size int, parts []Part) int {
	if len(parts) != len(m.nodes) {
		panic(fmt.Sprintf("am: a segment of %d parts on a %d-node machine", len(parts), len(m.nodes)))
	}
	m.sizes = append(m.sizes, size)
	for i, nd := range m.nodes {
		nd.parts = append(nd.parts, parts[i])
	}
	return len(m.sizes) - 1
}

// AddF64 is Add for a segment of doubles; parts[i] may be nil.
func (m *Mem) AddF64(parts [][]float64) int {
	ps := make([]Part, len(parts))
	for i, p := range parts {
		if p != nil {
			ps[i] = F64Part(p)
		}
	}
	return m.Add(wordBytes, ps)
}

// Stores counts the elements stored at node: a store's one, a bulk store's
// count.
func (m *Mem) Stores(node int) *Count { return &m.nodes[node].stores }

// InFlight is the number of node's accesses awaiting their reply.
func (m *Mem) InFlight(node int) int { return m.nodes[node].pending.InFlight() }

// Handlers returns the protocol's request and reply handler.
func (m *Mem) Handlers() (req, reply HandlerID) { return m.hReq, m.hReply }

// part resolves the words (segment, offset, count) of request id from node
// src to node me's part holding the elements: the one lookup of every
// location. The words may come from another process, so each is checked
// before it indexes anything and a bad one is refused by name; f64 also
// requires a segment of doubles.
//
//mpmd:hotpath
func (m *Mem) part(me, src int, id, seg, off, n uint64, f64 bool) Part {
	parts := m.nodes[me].parts
	if seg >= uint64(len(parts)) || parts[seg] == nil {
		panic(fmt.Sprintf("am: node %d mem request %d from node %d: no part of segment %d here (%d registered; symmetric set-up across shards required)", me, id, src, seg, len(parts)))
	}
	part, l := parts[seg], uint64(parts[seg].Len())
	if off > l || n > l-off {
		panic(fmt.Sprintf("am: node %d mem request %d from node %d: %d elements at offset %d outside segment %d's part of %d", me, id, src, n, off, seg, l))
	}
	if _, ok := part.(F64Part); f64 && !ok {
		panic(fmt.Sprintf("am: node %d mem request %d from node %d: segment %d holds no doubles", me, id, src, seg))
	}
	return part
}

// Local returns n doubles at offset off of node's own part of segment seg,
// for a dereference that needs no message; it is checked like a request.
func (m *Mem) Local(node, seg, off, n int) []float64 {
	return m.part(node, node, 0, uint64(seg), uint64(off), uint64(n), true).(F64Part)[off : off+n]
}

// Op is one access in flight at its initiator: where its reply lands and what
// it advances.
type Op struct {
	// Done is advanced by one when the reply has landed; SV, when non-nil, is
	// then written (CC++'s handoff to a sender blocked on it).
	Done *Count
	SV   *threads.SyncVar
	// Into, when non-nil, also receives a get's elements, from offset 0 on;
	// they always land in the record (Bytes).
	Into Part

	a0      uint64 // the request's op bits
	n, size int    // elements, and their encoded size (0: varies)
	t0      time.Duration
	b       [replyBytes]byte
	p       []byte
}

// inWords reports whether a get's element of the given encoded size travels
// in the reply words.
func inWords(size int) bool { return 0 < size && size <= replyBytes }

// fits reports whether b is the payload of n elements of the given encoded
// size (0: varies) when an element of up to words bytes travels in the
// message words instead, unless the access is bulk.
func fits(b []byte, n uint64, size, words int, bulk bool) bool {
	switch {
	case !bulk && 0 < size && size <= words:
		return len(b) == 0
	case size == 0:
		return !bulk && len(b) > 0
	}
	return uint64(len(b)) == n*uint64(size)
}

// Scratch returns the record's byte buffer, emptied, to encode a put's
// element into; Access keeps it, grown if the encoding outgrew it, for the
// record's next use.
func (op *Op) Scratch() []byte {
	if op.p == nil {
		op.p = op.b[:0]
	}
	return op.p[:0]
}

// Bytes returns the encoded elements a completed get landed in the record,
// valid until its next use.
func (op *Op) Bytes() []byte {
	if inWords(op.size) && op.a0&OpBulk == 0 {
		return op.b[:op.size]
	}
	return op.p
}

// Access issues one access from t's node to node: a = [kind and op bits,
// segment, offset, x] of the word layout, payload a put's encoded elements.
// One 8-byte element moves into the words. op is where the reply lands, nil
// for a store. With wait, Access returns once the reply has landed; without,
// op.Done observes it, and a node with Price.Slots such accesses in flight
// first awaits a reply. A synchronous access takes no slot: its thread is
// its own credit, unable to issue again until the access returns.
//
//mpmd:hotpath
func (m *Mem) Access(t *threads.Thread, op *Op, node int, a [4]uint64, payload []byte, wait bool) {
	ep := m.net.eps[t.Node().ID]
	nd := m.nodes[ep.node.ID]
	kind, size := a[0]&opKind, m.sizes[a[1]]
	if kind == OpGet {
		ep.node.Acct.Count(machine.CntRemoteRead, 1)
	} else {
		ep.node.Acct.Count(machine.CntRemoteWrite, 1)
	}
	if op != nil && kind != OpGet {
		op.p = payload[:0]
	}
	if a[0]&OpBulk == 0 && size == wordBytes && len(payload) == wordBytes {
		a[3] = binary.LittleEndian.Uint64(payload)
		payload = nil
	}
	t.ChargeSyncOps(m.p.SyncOps)
	t.Charge(machine.CatRuntime, m.p.Issue)
	t.Charge(machine.CatRuntime, time.Duration(len(payload))*t.Cfg().MemCopyPerByte)
	var want uint64
	if kind != OpStore {
		op.a0, op.n, op.size = a[0], 1, size
		if a[0]&OpBulk != 0 {
			op.n = int(a[3])
		}
		for !wait && m.p.Slots > 0 && nd.pending.InFlight() >= m.p.Slots {
			ep.Await(t, &nd.freed, nd.freed.Value()+1)
		}
		if ep.node.Met != nil {
			op.t0 = ep.node.M.Now()
		}
		a[0] |= nd.pending.Add(op)
		want = op.Done.Value() + 1
	}
	t.ChargeSyncOps(m.p.SyncOps)
	ep.Request(t, node, m.hReq, a, payload, len(payload) > 0 || a[0]&OpBulk != 0 && kind != OpGet)
	switch {
	case !wait:
	case op.SV != nil:
		op.SV.Read(t)
	default:
		ep.Await(t, op.Done, want)
	}
}

// request checks one access at the owner and serves it, inline or on a
// fresh thread. Every word may come from another process: the op bits,
// segment, offset and count, and the payload's form are checked before
// anything is indexed or spawned.
//
//mpmd:hotpath
func (m *Mem) request(t *threads.Thread, msg Msg) {
	t.ChargeSyncOps(m.p.SyncOps)
	a, b := msg.A, msg.Payload
	id, kind, bulk, thread := a[0]&idMask, a[0]&opKind, a[0]&OpBulk != 0, a[0]&OpThread != 0
	n := uint64(1)
	if bulk {
		n = a[3]
	}
	part := m.part(msg.Dst, msg.Src, id, a[1], a[2], n, thread || kind == OpAdd)
	switch size := m.sizes[a[1]]; {
	case thread && len(b) > 0:
		panic(fmt.Sprintf("am: node %d mem request %d from node %d: a threaded access carries a %d-byte payload", msg.Dst, id, msg.Src, len(b)))
	case kind != OpGet && !fits(b, n, size, wordBytes, bulk):
		panic(fmt.Sprintf("am: node %d mem request %d from node %d: a put carries a %d-byte payload for %d × %d-byte elements (0: varies)", msg.Dst, id, msg.Src, len(b), n, size))
	}
	if thread {
		m.serveOnThread(t, msg.Dst, msg.Src, a, int(n), part)
		return
	}
	m.serve(t, msg.Dst, msg.Src, a, b, int(n), part)
}

// serveOnThread serves a checked threaded access on a fresh thread.
//
//mpmd:coldpath a threaded access is served on its own thread by design (Table 4's GP row: a create and two switches); every other access is served inline
func (m *Mem) serveOnThread(t *threads.Thread, me, src int, a [4]uint64, n int, part Part) {
	t.Spawn("mem.serve", func(t2 *threads.Thread) { m.serve(t2, me, src, a, nil, n, part) })
}

// serve applies a checked access to n elements of part at node me and
// answers node src, unless it is a store. b is a put's elements when not in
// the words, valid only while the request handler runs.
//
//mpmd:hotpath
func (m *Mem) serve(t *threads.Thread, me, src int, a [4]uint64, b []byte, n int, part Part) {
	nd := m.nodes[me]
	kind, size, off := a[0]&opKind, m.sizes[a[1]], int(a[2])
	t.Charge(machine.CatRuntime, m.p.Serve)
	r := [4]uint64{3: a[0] & idMask}
	var out []byte
	if kind == OpGet {
		nd.buf = nd.buf[:0]
		for i := 0; i < n; i++ {
			nd.buf = part.AppendElem(off+i, nd.buf)
		}
		if a[0]&OpBulk == 0 && inWords(size) {
			for i := 0; i < size; i += 8 {
				r[i/8] = binary.LittleEndian.Uint64(nd.buf[i:])
			}
		} else {
			out = nd.buf
		}
		t.Charge(machine.CatRuntime, time.Duration(len(out))*t.Cfg().MemCopyPerByte)
	} else {
		t.Charge(machine.CatRuntime, time.Duration(len(b))*t.Cfg().MemCopyPerByte)
		if len(b) == 0 && a[0]&OpBulk == 0 {
			nd.buf = binary.LittleEndian.AppendUint64(nd.buf[:0], a[3])
			b = nd.buf
		}
		for i := 0; i < n; i++ {
			if kind == OpAdd {
				part.(F64Part)[off+i] += math.Float64frombits(binary.LittleEndian.Uint64(b[i*size:]))
			} else {
				part.SetElem(off+i, b[i*size:])
			}
		}
		if kind == OpStore {
			nd.stores.Advance(t, uint64(n))
			return
		}
	}
	m.net.eps[me].Request(t, src, m.hReply, r, out, len(out) > 0 || a[0]&OpBulk != 0 && kind == OpGet)
}

// reply lands a get's elements, or a put's acknowledgement, at the initiator.
// The words and payload may come from another process: the id is checked
// before it indexes the landing table, and the reply's form against the
// access it names before anything lands.
//
//mpmd:hotpath
func (m *Mem) reply(t *threads.Thread, msg Msg) {
	nd := m.nodes[msg.Dst]
	op := nd.pending.Take("mem", msg.Dst, msg.Src, msg.A[3])
	nd.freed.Advance(t, 1)
	b, get, bulk := msg.Payload, op.a0&opKind == OpGet, op.a0&OpBulk != 0
	switch {
	case !get && len(b) > 0:
		panic(fmt.Sprintf("am: node %d mem reply from node %d for request %d: an acknowledgement carries a %d-byte payload", msg.Dst, msg.Src, msg.A[3], len(b)))
	case get && !fits(b, uint64(op.n), op.size, replyBytes, bulk):
		panic(fmt.Sprintf("am: node %d mem reply from node %d for request %d: a %d-byte payload for %d × %d-byte elements (0: varies)", msg.Dst, msg.Src, msg.A[3], len(b), op.n, op.size))
	}
	if node := m.net.eps[msg.Dst].node; op.t0 > 0 && node.Met != nil {
		node.Met.ObserveDur(metrics.HstRMILatency, node.M.Now()-op.t0)
	}
	t.ChargeSyncOps(m.p.SyncOps)
	t.Charge(machine.CatRuntime, time.Duration(len(b))*t.Cfg().MemCopyPerByte)
	t.Charge(machine.CatRuntime, m.p.Complete)
	if get {
		op.land(msg.A, b, bulk)
	}
	op.Done.Advance(t, 1)
	if op.SV != nil {
		op.SV.Write(t, nil)
	}
}

// land stores a checked get reply — the element in the words, or the
// payload — in the record, and its elements in Into when the access names one.
//
//mpmd:hotpath
func (op *Op) land(a [4]uint64, b []byte, bulk bool) {
	if !bulk && len(b) == 0 {
		for i := 0; i < op.size; i += 8 {
			binary.LittleEndian.PutUint64(op.b[i:], a[i/8])
		}
	} else {
		op.p = op.p[:0]
		op.p = append(op.p, b...)
	}
	for e, i := op.Bytes(), 0; op.Into != nil && i < op.n; i++ {
		op.Into.SetElem(i, e[i*op.size:])
	}
}
