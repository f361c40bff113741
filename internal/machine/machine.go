package machine

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/transport/simnet"
	"repro/internal/wire"
)

// Machine is a multicomputer: an execution backend, a cost configuration,
// and a set of nodes. New builds it over the calibrated discrete-event
// simulator; NewWithBackend accepts any transport backend (the live backend
// runs the same machine on real goroutines with wall-clock timing).
type Machine struct {
	// Eng is the discrete-event engine when the machine runs on the simnet
	// backend (tests schedule raw events and read virtual time through it).
	// It is nil on other backends.
	Eng *sim.Engine
	Cfg Config

	be    transport.Backend
	nodes []*Node

	// How a packet reaches its node, fixed at construction. One of Eng
	// (local-modelled: one engine event after the modelled latency enqueues
	// and arrives) and wall (local-immediate: enqueue here, then notify the
	// node by index; also the wall-clock metrics) is set. shard is be's
	// ordered links to peer address spaces, nil on a machine of one address
	// space; when set, Send serializes packets for non-local nodes onto it and
	// wireDec (installed by the messaging layer) reconstructs arriving ones.
	wall    transport.WallClock
	shard   transport.Sharded
	wireDec func(src, dst int, b []byte) any

	// Trace, when non-nil, receives instrumentation callbacks from the
	// layers above (kind is "send", "recv", "spawn", "switch", or "charge";
	// dur is non-zero for charges). Install via the trace package's Attach.
	Trace func(at time.Duration, node int, kind, label string, dur time.Duration)
}

// Emit forwards an instrumentation event to the tracer, if one is installed.
func (m *Machine) Emit(node int, kind, label string, dur time.Duration) {
	if m.Trace != nil {
		m.Trace(m.be.Now(), node, kind, label, dur)
	}
}

// New builds a machine with n nodes over a fresh discrete-event simulator.
func New(cfg Config, n int) *Machine {
	be := simnet.New(n)
	return NewWithBackend(cfg, n, be)
}

// NewWithBackend builds a machine with n nodes over an explicit transport
// backend.
func NewWithBackend(cfg Config, n int, be transport.Backend) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if n <= 0 {
		panic("machine: need at least one node")
	}
	if be.NumNodes() != n {
		panic(fmt.Sprintf("machine: backend has %d nodes, machine wants %d", be.NumNodes(), n))
	}
	m := &Machine{Cfg: cfg, be: be}
	if s, ok := be.(*simnet.Backend); ok {
		m.Eng = s.Engine()
	} else if m.wall, ok = be.(transport.WallClock); ok {
		m.wall.SetArrival(m.arrive)
	} else {
		panic(fmt.Sprintf("machine: backend %q is neither the simulator nor a transport.WallClock", be.Name()))
	}
	if m.shard, _ = be.(transport.Sharded); m.shard != nil {
		m.shard.SetRemoteHandler(m.remoteArrival)
		m.shard.SetStatsProvider(m.localStatsPayload)
	}
	for i := 0; i < n; i++ {
		nd := &Node{
			ID:   i,
			M:    m,
			Acct: newAccounting(),
		}
		if m.wall != nil {
			nd.Met = m.wall.NodeMetrics(i)
		}
		m.nodes = append(m.nodes, nd)
	}
	return m
}

// Backend returns the execution backend the machine runs on.
func (m *Machine) Backend() transport.Backend { return m.be }

// SetWireDecoder installs the packet-payload decoder used for frames
// arriving from peer shards. dec returns nil for bytes it cannot decode (they
// come from another process), and the shard link that carried them is then
// abandoned as malformed. The messaging layer that defines the payload type
// installs it (am.NewNet does); it is a no-op concern on single-address-space
// backends.
func (m *Machine) SetWireDecoder(dec func(src, dst int, b []byte) any) { m.wireDec = dec }

// arrive runs node's arrival hook in its context: the arrival function of a
// wall-clock backend, and the second half of a simulator delivery. local
// says a sender of this address space, running in its own node's context,
// won the node's free CPU: for the length of the hook the node is then
// Interrupted.
func (m *Machine) arrive(node int, local bool) {
	nd := m.nodes[node]
	if h := nd.OnArrival; h != nil {
		nd.intr = local
		h()
		nd.intr = false
	}
}

// remoteArrival lands a packet received from a peer shard: decode the
// payload, enqueue, and notify the destination through the backend's direct
// path. It runs on whichever backend goroutine consumed the link; the inbox
// is thread-safe and the backend runs the arrival hook holding the
// destination's CPU (on this goroutine when the CPU is free — which is how an
// idle proc polling the link wakes itself — else on the CPU's holder before it
// lets go). False means the decoder rejected the payload and nothing landed.
func (m *Machine) remoteArrival(src, dst, size int, enc []byte) bool {
	if m.wireDec == nil {
		panic(fmt.Sprintf("machine: packet from shard peer for node %d but no wire decoder installed", dst))
	}
	payload := m.wireDec(src, dst, enc)
	if payload == nil {
		return false
	}
	nd := m.Node(dst)
	nd.pushInbox(Packet{Size: size, Payload: payload})
	m.wall.DeliverDirect(dst, false)
	return true
}

// Now returns the backend clock: virtual time on the simulator, wall-clock
// time on the live backend.
func (m *Machine) Now() time.Duration { return m.be.Now() }

// Wake runs node's arrival hook in its execution context with nothing
// enqueued, the way a packet's arrival gets there: a notify on a wall-clock
// backend, a zero-latency event on the simulator. It may be called from any
// goroutine (on the simulator, from inside the simulation); the hook finds
// out for itself what there is to do.
func (m *Machine) Wake(node int) {
	if m.wall != nil {
		m.wall.DeliverDirect(node, false)
		return
	}
	m.Eng.After(0, func() { m.arrive(node, false) })
}

// NumNodes returns the number of nodes.
func (m *Machine) NumNodes() int { return len(m.nodes) }

// Node returns node i.
func (m *Machine) Node(i int) *Node {
	if i < 0 || i >= len(m.nodes) {
		panic(fmt.Sprintf("machine: node %d out of range [0,%d)", i, len(m.nodes)))
	}
	return m.nodes[i]
}

// Nodes returns all nodes in ID order.
func (m *Machine) Nodes() []*Node { return m.nodes }

// Run drives the machine to completion. It returns an error if the program
// cannot make progress (simulator: parked processes with an empty event
// queue; live: watchdog expiry).
func (m *Machine) Run() error { return m.be.Run() }

// Snapshot returns a merged accounting snapshot across all nodes.
func (m *Machine) Snapshot() Snapshot {
	snaps := make([]Snapshot, 0, len(m.nodes))
	for _, n := range m.nodes {
		snaps = append(snaps, n.Acct.Snapshot())
	}
	return MergeSnapshots(snaps...)
}

// Packet is a network-level message in flight. Payload is opaque to the
// machine layer; the messaging layer (am) defines its contents, and its
// source and destination ride there. Size is the modelled wire size in
// bytes, used only for reporting — timing charges are made explicitly by the
// messaging layer.
type Packet struct {
	Size    int
	Payload any
}

// Node is one processor of the multicomputer. The messaging layer installs
// OnArrival to be notified (in the node's execution context, at the arrival
// instant) when a packet lands in the node's inbound queue.
type Node struct {
	ID   int
	M    *Machine
	Acct *Accounting

	// Met is the node's wall-clock metrics registry, nil on backends without
	// one (the simulator). Layers that record into it — the core RMI path,
	// for one — must nil-check; the nil path is the 0 allocs/op contract.
	Met *metrics.Registry

	// inboxMu guards inbox. On the simulator it is uncontended (one
	// goroutine runs at a time); on the live backend it is what lets a
	// sender enqueue directly from its own goroutine while the receiver
	// polls concurrently. The inbox is a head-index ring: pops are O(1)
	// instead of sliding the whole queue, so deep inboxes (a node being
	// blasted by many senders) drain in linear, not quadratic, time.
	inboxMu sync.Mutex
	inbox   wire.Ring[Packet] //mpmdvet:guard inboxMu

	// OnArrival, if non-nil, runs in the node's execution context after a
	// packet is appended to the inbox, and after Machine.Wake. It must not
	// sleep or block. Arrivals coalesce: it runs at least once after each
	// enqueue or wake, not once per each, so it reads what there is (am's
	// waiters re-check the inbox and re-arm). When the node is Interrupted the
	// hook may handle what is in the inbox itself; otherwise it only marks
	// threads runnable.
	OnArrival func()

	// intr is Interrupted's answer, set in the node's context.
	intr bool
}

// Interrupted reports, in the node's context, whether its arrival hook is
// running on a sender of this address space that found the node's CPU free
// (never on the simulator, nor for a link arrival, a Wake or a notify that
// pended): the node is in its interrupt context, and the hook may run the
// node's handlers on the sender's goroutine. The node's own sends meanwhile
// notify their destinations the wake-up way, so an interrupt never nests
// another.
func (n *Node) Interrupted() bool { return n.intr }

// Cfg returns the machine's cost configuration. The result is read-only: it
// points at the machine's one copy (every charge reads a field of it, and
// copying the struct per charge was a measurable share of a warm RMI).
func (n *Node) Cfg() *Config { return &n.M.Cfg }

// InboxLen reports the number of undelivered packets queued at the node.
func (n *Node) InboxLen() int {
	n.inboxMu.Lock()
	defer n.inboxMu.Unlock()
	return n.inbox.Len()
}

// pushInbox appends a packet to the inbound queue. Safe to call from any
// goroutine (live senders enqueue directly).
//
//mpmd:hotpath
func (n *Node) pushInbox(pkt Packet) {
	n.inboxMu.Lock()
	n.inbox.Push(pkt)
	n.inboxMu.Unlock()
}

// PopInbox removes and returns the oldest queued packet. ok is false when
// the inbox is empty.
//
//mpmd:hotpath
func (n *Node) PopInbox() (pkt Packet, ok bool) {
	n.inboxMu.Lock()
	defer n.inboxMu.Unlock()
	return n.inbox.Pop()
}

// Send puts a packet on the wire from node n to dst, arriving after the
// configured wire latency plus extraWire (e.g. serialization time of a bulk
// payload on a slower path); the live backend ignores the modelled latency
// and delivers as fast as the hardware allows. Sender-side CPU costs must
// already have been charged by the caller; Send itself consumes no CPU.
//
// Delivery order between a given (src,dst) pair is FIFO for equal latencies:
// on the simulator because the event queue breaks ties in schedule order, on
// the live backend because enqueue runs in send order.
//
//mpmd:hotpath
func (n *Node) Send(dst int, extraWire time.Duration, size int, payload any) {
	m := n.M
	target := m.Node(dst)
	if m.Trace != nil {
		m.Emit(n.ID, "send", fmt.Sprintf("->n%d %dB", dst, size), 0) //mpmdvet:ignore hotpath trace-gated: only runs when m.Trace is enabled
	}
	if m.shard != nil && !m.shard.IsLocal(dst) {
		// The destination lives in another address space, so the payload must
		// actually serialize; the shard link marshals it into memory it owns.
		wp, ok := payload.(transport.FrameMarshaler)
		if !ok {
			panic(fmt.Sprintf("machine: packet payload %T for remote node %d is not wire-serializable", payload, dst))
		}
		m.shard.SendRemote(n.ID, dst, size, wp)
		return
	}
	m.deliverLocal(n, target, m.Cfg.WireLatency+extraWire, Packet{Size: size, Payload: payload})
}

// Loopback enqueues a packet to the node itself with zero latency. Some
// runtimes route node-local operations through the same handler path to keep
// semantics uniform; the machine model charges no wire time for them.
//
//mpmd:hotpath
func (n *Node) Loopback(size int, payload any) {
	n.M.deliverLocal(n, n, 0, Packet{Size: size, Payload: payload})
}

// deliverLocal lands pkt at target, a node of this address space, lat of
// modelled wire time from now. An immediate-delivery backend ignores lat:
// the packet is enqueued here, on the sender, and the backend is notified by
// the node's index — nothing is constructed, so the warm send path does not
// allocate — as a local send (arrive) unless from, the sending node, is in its
// interrupt context. The simulator runs the same two steps as one event lat
// from now.
//
//mpmd:hotpath
func (m *Machine) deliverLocal(from, target *Node, lat time.Duration, pkt Packet) {
	if m.wall != nil {
		target.pushInbox(pkt)
		m.wall.DeliverDirect(target.ID, !from.intr)
		return
	}
	m.Eng.After(lat, func() { //mpmdvet:ignore hotpath simulator backend only; live backends take the direct path above
		target.pushInbox(pkt)
		m.arrive(target.ID, false)
	})
}
