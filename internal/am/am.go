// Package am implements the Active Messages layer both language runtimes are
// built on, following the SP port described in Chang et al. (SC 1996) that
// the paper uses: 4-word request/reply messages, bulk transfers, and
// polling-based reception (each send also polls; a blocked node parks until
// the next arrival).
//
// A handler runs to completion on the receiving node, inline in whichever
// thread performed the poll, or in the node's interrupt context: on a
// wall-clock machine a sender of the same address space that finds the node
// idle handles what it finds in the inbox on the spot, on its own goroutine,
// and wakes no thread to do it. Handlers must not block (in an interrupt that
// panics); they may send replies and advance a Count, which is how both
// runtimes complete every blocking operation: the waiting thread polls in
// Endpoint.Await until the handler that lands its reply, store or release
// advances the count it waits on.
// Both runtimes' remote memory — Split-C's global accesses, CC++'s global
// pointers and distributed arrays — is one protocol over it (Mem, mem.go).
//
// The network prices its messages: a Net carries one Profile, what each
// message costs beyond the machine's Active Messages constants (nothing for
// the runtimes the paper builds, the Nexus/TCP surcharges and the interrupt
// model for CC++'s §6 comparison and ablation), and each side of a message
// charges its part from its own net. A message on the wire is its words and
// payload only. IBM's MPL, the paper's reference layer, is such a price too:
// its round trip is a ping-pong of short messages on a net whose profile
// raises each side's overhead to MPL's (bench.MPLReferenceRTT).
//
// The layer keeps no count of its own. A send bumps its node's am.msg.short
// or am.msg.bulk before the message can arrive, and a poll bumps am.handlers
// once the handler has returned; the end of a run reads them as the messages
// sent and handled (machine.Accounting).
package am

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machine"
	"repro/internal/threads"
	"repro/internal/wire"
)

// HandlerID names a registered handler. IDs are identical on every node
// (handlers are registered machine-wide before the simulation starts), which
// mirrors the SPMD assumption of the AM layer itself; the MPMD runtime's
// method-name indirection is layered above this.
type HandlerID int

// Msg is one active message as seen by a handler.
type Msg struct {
	// Bulk reports whether the message used the bulk-transfer path.
	Bulk bool
	// Src and Dst are node IDs.
	Src, Dst int
	// H is the handler this message targets.
	H HandlerID
	// A holds the four word-sized arguments of a short AM.
	A [4]uint64
	// Payload is the bulk payload (nil for short messages). It is a view
	// into a pooled wire buffer, valid only while the handler runs: the AM
	// layer recycles the buffer when the handler returns (run-to-completion
	// is the retention window). A handler that needs the bytes afterwards
	// must copy them out, or Retain PayloadBuf and Release it when done.
	Payload []byte
	// PayloadBuf is the pooled buffer backing Payload (nil for short
	// messages). Handlers normally leave it alone; see Payload for the
	// retention rule. It is envelope-side bookkeeping and the one field that
	// is not wire words: EncodeWire releases it and frames only Payload's
	// bytes (TestMsgFieldsAreWords holds every other field to that).
	PayloadBuf *wire.Buf
}

// wireHeaderLen is the serialized Msg header: flags byte, handler u32,
// 4 word arguments. Src/Dst/Size ride in the packet frame.
const wireHeaderLen = 1 + 4 + 4*8

// WireLen implements transport.FrameMarshaler: the serialized length of the
// message for a cross-address-space hop.
func (m *Msg) WireLen() int { return wireHeaderLen + len(m.Payload) }

// EncodeWire implements transport.FrameMarshaler. It serializes the message into
// b (which must hold WireLen bytes) and consumes the envelope: the payload
// buffer is released and the pooled Msg recycled, so the caller must not
// touch m afterwards.
func (m *Msg) EncodeWire(b []byte) int {
	var flags byte
	if m.Bulk {
		flags |= 1
	}
	b[0] = flags
	binary.LittleEndian.PutUint32(b[1:], uint32(m.H))
	off := 5
	for _, a := range m.A {
		binary.LittleEndian.PutUint64(b[off:], a)
		off += 8
	}
	off += copy(b[off:], m.Payload)
	if m.PayloadBuf != nil {
		m.PayloadBuf.Release()
	}
	*m = Msg{}
	msgPool.Put(m)
	return off
}

// DecodeWireMsg reconstructs a pooled Msg envelope from the serialized form,
// copying the payload into a fresh pooled wire buffer, so packets arriving
// from a peer shard re-enter the inbox exactly as locally sent ones do. The
// bytes come from another process: fewer than the header's, a flags byte with
// a bit other than bulk set and a short message with bytes after its header
// decode to nil, and the shard link that carried them is abandoned as
// malformed. The decoder NewNet installs (decodeWire) also holds the handler
// ID against its table.
func DecodeWireMsg(src, dst int, b []byte) any {
	if len(b) < wireHeaderLen || b[0]&^1 != 0 || b[0] == 0 && len(b) > wireHeaderLen {
		return nil
	}
	m := msgPool.Get().(*Msg)
	*m = Msg{
		Bulk: b[0]&1 != 0,
		Src:  src,
		Dst:  dst,
		H:    HandlerID(binary.LittleEndian.Uint32(b[1:])),
	}
	off := 5
	for i := range m.A {
		m.A[i] = binary.LittleEndian.Uint64(b[off:])
		off += 8
	}
	if len(b) > off {
		m.PayloadBuf = wire.Copy(b[off:])
		m.Payload = m.PayloadBuf.Bytes()
	}
	return m
}

// Profile is what every message on a net costs beyond the machine's Active
// Messages profile: zero for the runtimes the paper builds, the Nexus/TCP
// surcharges under core.Options.Nexus, a kernel delivery per message under
// core.Options.InterruptDriven. Each side of a message charges its part from
// its own net, which every program image builds alike, so nothing of the
// price travels with the message.
type Profile struct {
	// ExtraSendCPU is charged to the sender on top of the send overhead.
	ExtraSendCPU time.Duration
	// ExtraWire delays delivery beyond the configured wire latency.
	ExtraWire time.Duration
	// ExtraRecvCPU is charged to the receiver when the message is polled.
	ExtraRecvCPU time.Duration
	// GapPerByte overrides the per-byte sender occupancy when non-zero.
	GapPerByte time.Duration
	// InterruptCost, when non-zero, switches reception to the
	// interrupt-driven model: every received message also charges this
	// kernel-delivery cost, and sends no longer poll (the interrupt provides
	// progress instead).
	InterruptCost time.Duration
}

// Handler is the code run at the receiving node. It executes inline in the
// polling thread, or in the node's interrupt context, and must not block.
type Handler func(t *threads.Thread, m Msg)

// Endpoint is one node's attachment to the network.
type Endpoint struct {
	net     *Net
	node    *machine.Node
	sched   *threads.Scheduler
	waiters []*threads.Thread
	polling bool
	stopped bool        // in the node's context, by the arrival Stop wakes
	stop    atomic.Bool // Stop's request, from any goroutine
	// modelled is read once: on the simulator Await yields to a ready
	// sibling, on a wall-clock machine it never does.
	modelled bool
}

// Net wires one Endpoint per machine node, owns the handler table and prices
// every message its endpoints send and receive.
type Net struct {
	m        *machine.Machine
	p        Profile
	eps      []*Endpoint
	handlers []Handler
	names    []string
}

// NewNet creates endpoints for every node of m, whose messages cost p beyond
// the machine's profile, and installs arrival hooks. Each node needs a
// scheduler already attached via Attach before messages can be received.
func NewNet(m *machine.Machine, p Profile) *Net {
	n := &Net{m: m, p: p}
	// Messages are the machine's serializable packet payload: install the
	// codec so sharded backends can carry them across address spaces.
	m.SetWireDecoder(n.decodeWire)
	for _, node := range m.Nodes() {
		ep := &Endpoint{net: n, node: node, modelled: m.Eng != nil}
		node.OnArrival = ep.onArrival
		n.eps = append(n.eps, ep)
	}
	return n
}

// decodeWire is DecodeWireMsg for this net: Poll indexes the handler table
// with the ID the peer's bytes carry, so a frame naming a handler that was
// never registered is refused here, like one too short for its header. The
// ID is compared unsigned: as an int it is negative past 1<<31 on 32-bit
// platforms.
func (n *Net) decodeWire(src, dst int, b []byte) any {
	if len(b) < wireHeaderLen || uint64(binary.LittleEndian.Uint32(b[1:])) >= uint64(len(n.handlers)) {
		return nil
	}
	return DecodeWireMsg(src, dst, b)
}

// Machine returns the underlying machine.
func (n *Net) Machine() *machine.Machine { return n.m }

// Endpoint returns node i's endpoint.
func (n *Net) Endpoint(i int) *Endpoint { return n.eps[i] }

// Register adds a handler to the machine-wide table and returns its ID.
// Must be called before the simulation starts (or at least before any
// message targeting it is sent).
func (n *Net) Register(name string, h Handler) HandlerID {
	n.handlers = append(n.handlers, h)
	n.names = append(n.names, name)
	return HandlerID(len(n.handlers) - 1)
}

// HandlerName returns the debug name of a handler ID.
func (n *Net) HandlerName(id HandlerID) string {
	if int(id) < 0 || int(id) >= len(n.names) {
		return fmt.Sprintf("handler(%d)", int(id))
	}
	return n.names[id]
}

// Attach binds the endpoint to the node's thread scheduler. It must be
// called once per node before receiving.
func (ep *Endpoint) Attach(s *threads.Scheduler) { ep.sched = s }

// Node returns the endpoint's node.
func (ep *Endpoint) Node() *machine.Node { return ep.node }

// Stop shuts the endpoint down. It may be called from any goroutine: it
// records the request and wakes the node, whose arrival hook, in the node's
// context, marks the endpoint stopped and wakes every thread parked in
// WaitMessage, letting service loops observe their exit condition.
func (ep *Endpoint) Stop() {
	ep.stop.Store(true)
	ep.node.M.Wake(ep.node.ID)
}

// Stopped reports whether a Stop has landed in the node's context.
func (ep *Endpoint) Stopped() bool { return ep.stopped }

// Unhandled reports the messages a run left in its inboxes, which no thread
// will ever handle, as one error per node naming the node, the sender and the
// handler; nil when every inbox is empty. Both runtimes call it once the
// machine has stopped. A node of another address space has nothing in its
// inbox here: its messages leave by the shard link.
func (n *Net) Unhandled() error {
	var err error
	for _, ep := range n.eps {
		if pkt, ok := ep.node.PopInbox(); ok {
			msg := pkt.Payload.(*Msg)
			err = errors.Join(err, fmt.Errorf("am: node %d ended the run with a message from node %d for %s unhandled",
				ep.node.ID, msg.Src, n.HandlerName(msg.H)))
		}
	}
	return err
}

// onArrival wakes the most recent waiter only (LIFO): an actively waiting
// computation thread registered after the background polling thread, so it
// gets the message and handles its own reply inline — the polling thread
// stays parked and no context switches are paid, matching the paper's
// "0-Word Simple" sender. Await re-arms the remaining waiters if a woken
// thread leaves messages behind. Once Stop has been asked for, it stops the
// endpoint and wakes every waiter instead.
//
// An arrival that a local sender runs, having found the node's CPU free (the
// node is Interrupted, never on the simulator), while the node idles — no
// thread runs, and some thread is blocked, so the node has not finished — and
// the endpoint has not stopped, wakes nobody for what is in the inbox: the
// sender handles it on the spot, in the node's interrupt context, and wakes a
// waiter only for what is left.
func (ep *Endpoint) onArrival() {
	if ep.stop.Load() {
		ep.stopped = true
	}
	if ep.node.Interrupted() && !ep.modelled && !ep.stopped && ep.sched.Idle() && ep.sched.Live() > 0 {
		if ep.interrupt(); ep.node.InboxLen() == 0 {
			return
		}
	}
	for ep.wakeOne() && ep.stopped {
	}
}

// interrupt handles, in the node's interrupt context, the messages in the
// inbox on entry; later ones are for a waiter. A thread a handler readied
// runs once the interrupt ends.
func (ep *Endpoint) interrupt() {
	n := ep.node.InboxLen()
	if n == 0 {
		return
	}
	t := ep.sched.Interrupt()
	for ; n > 0 && ep.Poll(t); n-- {
	}
	ep.sched.EndInterrupt()
}

// wakeOne readies the most recent waiter that is still blocked and reports
// whether there was one. A listed thread that is not blocked was made ready by
// something else (its completion, landed by a sibling) and has not run yet to
// unlist itself (WaitMessage): the wake-up goes to the next waiter instead of
// being spent on a thread that is already awake.
func (ep *Endpoint) wakeOne() bool {
	for n := len(ep.waiters); n > 0; n-- {
		w := ep.waiters[n-1]
		ep.waiters[n-1] = nil
		ep.waiters = ep.waiters[:n-1]
		if w.State() == threads.Blocked {
			ep.sched.MakeReady(w)
			return true
		}
	}
	return false
}

// Request sends an active message with the four words a to handler h on node
// dst, on the bulk path when bulk is set (a payload requires it; an empty one
// is allowed), and then polls the local endpoint once (the paper's layer
// polls on every send to guarantee progress without interrupts). The payload
// (if any) is copied at send time into a pooled wire buffer (value semantics:
// the sender may reuse its own buffer immediately), the sender pays its
// overheads plus per-byte occupancy, and wire delivery is delayed by the
// serialization time plus the net's extra wire time.
//
//mpmd:hotpath
func (ep *Endpoint) Request(t *threads.Thread, dst int, h HandlerID, a [4]uint64, payload []byte, bulk bool) {
	var buf *wire.Buf
	if len(payload) > 0 {
		buf = wire.Copy(payload)
	}
	ep.RequestOwned(t, dst, h, a, buf, bulk)
}

// RequestOwned is the zero-copy send path: ownership of buf (which may be
// nil for an empty payload) transfers to the message layer, which hands it
// across to the receiver uncopied and recycles it when the receiving handler
// completes. The caller must not touch buf after the call. The runtime's
// marshalling path uses this to ship argument bytes with no staging copy and
// no per-send allocation.
//
//mpmd:hotpath
func (ep *Endpoint) RequestOwned(t *threads.Thread, dst int, h HandlerID, a [4]uint64, buf *wire.Buf, bulk bool) {
	cfg, p := t.Cfg(), &ep.net.p
	n := 0
	if buf != nil {
		n = buf.Len()
	}
	if n > 0 && !bulk {
		panic("am: payload requires the bulk path")
	}
	gap := cfg.GapPerByte
	if p.GapPerByte > 0 {
		gap = p.GapPerByte
	}
	ser := time.Duration(n) * gap
	over := cfg.SendOverhead + p.ExtraSendCPU + ser
	// The message counts as sent before it can arrive (the end of a run
	// reads sent against handled).
	wireBytes := int64(shortWireBytes)
	if bulk {
		over += cfg.BulkExtraSend
		wireBytes += int64(n)
		ep.node.Acct.Count(machine.CntMsgBulk, 1)
	} else {
		ep.node.Acct.Count(machine.CntMsgShort, 1)
	}
	ep.node.Acct.Count(machine.CntBytesSent, wireBytes)
	t.Charge(machine.CatNet, over)
	msg := msgPool.Get().(*Msg)
	*msg = Msg{Bulk: bulk, Src: ep.node.ID, Dst: dst, H: h, A: a, PayloadBuf: buf}
	if buf != nil {
		msg.Payload = buf.Bytes()
	}
	ep.send(dst, ser+p.ExtraWire, int(wireBytes), msg)
	ep.pollOnSend(t)
}

// msgPool recycles message envelopes: a packet carries a *Msg, so the
// envelope would otherwise be one heap allocation per send (boxing a large
// struct into the packet's any). Poll returns the envelope before running
// the handler, which receives a value copy.
var msgPool = sync.Pool{New: func() any { return new(Msg) }}

// shortWireBytes models the wire footprint of a short AM (header + 4 words).
const shortWireBytes = 48

//mpmd:hotpath
func (ep *Endpoint) send(dst int, extraWire time.Duration, size int, msg *Msg) {
	if dst == ep.node.ID {
		ep.node.Loopback(size, msg)
		return
	}
	ep.node.Send(dst, extraWire, size, msg)
}

// pollOnSend drains any pending arrivals after a send, unless this send was
// itself issued from inside a handler (reply from a poll), which would
// otherwise recurse.
//
//mpmd:hotpath
func (ep *Endpoint) pollOnSend(t *threads.Thread) {
	if ep.polling || ep.net.p.InterruptCost > 0 {
		return
	}
	ep.PollAll(t)
}

// Poll services at most one pending message, charging the receive overhead
// and running its handler inline in t. It reports whether a message was
// handled. The handler receives a value copy of the envelope; the pooled
// envelope recycles immediately and the payload buffer (if any) recycles
// when the handler returns — the run-to-completion retention window.
//
// Every poll is also t's delivery point (Thread.Deliver): a thread that
// polls and never parks — a server under a stream of requests, a sender
// polling on every send — still lets its node's deliveries in.
//
//mpmd:hotpath
func (ep *Endpoint) Poll(t *threads.Thread) bool {
	t.Deliver()
	ep.node.Acct.Count(machine.CntPolls, 1)
	pkt, ok := ep.node.PopInbox()
	if !ok {
		return false
	}
	pm, ok := pkt.Payload.(*Msg)
	if !ok {
		panic(fmt.Sprintf("am: foreign packet in inbox of node %d: %T", ep.node.ID, pkt.Payload))
	}
	msg := *pm
	*pm = Msg{}
	msgPool.Put(pm)
	cfg, p := t.Cfg(), &ep.net.p
	over := cfg.RecvOverhead + p.ExtraRecvCPU + p.InterruptCost
	if msg.Bulk {
		over += cfg.BulkExtraRecv
	}
	t.Charge(machine.CatNet, over)
	ep.node.M.Emit(ep.node.ID, "recv", ep.net.names[msg.H], 0)
	h := ep.net.handlers[msg.H]
	wasPolling := ep.polling
	ep.polling = true
	h(t, msg)
	// Handled once its handler is done, never before: a run whose last
	// handler still runs has not ended.
	ep.node.Acct.Count(machine.CntHandlersRun, 1)
	ep.polling = wasPolling
	if msg.PayloadBuf != nil {
		msg.PayloadBuf.Release()
	}
	return true
}

// PollAll services pending messages until the inbox is empty.
func (ep *Endpoint) PollAll(t *threads.Thread) {
	for ep.Poll(t) {
	}
}

// WaitMessage parks the thread until a message arrives at the node (or the
// endpoint is stopped). It returns immediately if the inbox is non-empty.
// Callers poll after it returns. It is the park of a service loop, which
// waits for any message; a thread waiting for something in particular awaits
// a Count, and Await parks here too. Such a thread can be made ready by
// Advance instead; it then leaves the waiter list here, so a later arrival is
// not spent on a thread that is no longer parked.
func (ep *Endpoint) WaitMessage(t *threads.Thread) {
	if ep.node.InboxLen() > 0 || ep.stopped {
		return
	}
	ep.waiters = append(ep.waiters, t)
	t.Block()
	if i := slices.Index(ep.waiters, t); i >= 0 {
		ep.waiters = slices.Delete(ep.waiters, i, i+1)
	}
}

// Count is a node-local event count (Reed and Kanodia's eventcount): a value
// that only grows, advanced by handlers — a reply landed, a store arrived, a
// barrier released — and awaited by threads of its node (Endpoint.Await). One
// waiter sits inline, so a single waiter never allocates. Like all state a
// handler touches, it is used from its node's execution context only.
type Count struct {
	v    uint64
	one  *threads.Thread
	more []*threads.Thread
}

// Value returns the count.
func (c *Count) Value() uint64 { return c.v }

// Advance adds d and readies the threads parked on c; each re-checks its own
// target.
//
//mpmd:hotpath
func (c *Count) Advance(t *threads.Thread, d uint64) {
	c.v += d
	if w := c.one; w != nil {
		c.one = nil
		t.Scheduler().MakeReady(w)
	}
	for i, w := range c.more {
		c.more[i] = nil
		t.Scheduler().MakeReady(w)
	}
	c.more = c.more[:0]
}

// park blocks t on c, and as the node's most recent message waiter while the
// endpoint runs, until Advance or an arrival readies it.
func (c *Count) park(t *threads.Thread, ep *Endpoint) {
	if c.one == nil {
		c.one = t
	} else {
		c.more = append(c.more, t)
	}
	if ep.stopped {
		t.Block()
	} else {
		ep.WaitMessage(t)
	}
	if c.one == t { // an arrival ended the wait, not Advance
		c.one = nil
	} else if i := slices.Index(c.more, t); i >= 0 {
		c.more = slices.Delete(c.more, i, i+1)
	}
}

// Await polls until c reaches v: the one wait of both runtimes, and the
// building block for every blocking operation. The calling thread services
// the network, and the handler that advances c — run by its own poll or a
// sibling's — lets it go. With nothing to poll, a simulator endpoint yields to
// a ready sibling (which may be what advances c) or parks for a message: the
// paper's "Simple" sender, whose switches Table 4 prices. A wall-clock one
// never yields: it parks on c as the node's most recent, hence preferred,
// message waiter, so it runs its own reply's handler, and a sibling that ran
// it instead readies it through Advance. Once the endpoint has stopped, the
// thread parks on c alone. A wait that ends before the inbox drains hands the
// rest to a parked waiter.
//
//mpmd:hotpath
func (ep *Endpoint) Await(t *threads.Thread, c *Count, v uint64) {
	for c.v < v {
		switch {
		case ep.Poll(t):
		case !ep.modelled || ep.stopped:
			c.park(t, ep)
		case t.Scheduler().ReadyLen() > 0:
			t.Yield()
		default:
			ep.WaitMessage(t)
		}
	}
	if ep.node.InboxLen() > 0 {
		ep.wakeOne()
	}
}
