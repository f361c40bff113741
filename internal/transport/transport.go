// Package transport defines the backend seam between the machine model and
// the substrate that actually executes it.
//
// Everything above this interface — the machine's nodes and accounting, the
// cooperative threads package, the Active Messages engine, and both language
// runtimes — is written against two small contracts:
//
//   - Proc: a schedulable context with park/unpark/sleep semantics, exactly
//     the primitives the thread scheduler hands CPUs around with;
//   - Backend: node-affined process creation, the one clock, and Run.
//
// A packet reaches its destination node in exactly one of three ways, and
// which one is a property of the backend, fixed when the machine is built:
//
//   - local-modelled: transport/simnet wraps the deterministic discrete-event
//     engine (internal/sim) calibrated to the paper's 1997 IBM SP. The
//     machine schedules one engine event after the modelled wire latency
//     that enqueues the packet and runs the node's arrival hook; runs are
//     reproducible bit-for-bit.
//   - local-immediate (WallClock): transport/live maps every Proc to a real
//     goroutine and the clock to time.Now(). The machine enqueues on the
//     sender and notifies the destination by its index; the backend runs the
//     arrival function the machine installed in the destination's context —
//     on the sender, when the destination's CPU is free, which then runs the
//     node's handlers itself. Modelled latencies are ignored.
//   - remote-link (Sharded): transport/netlive shards the nodes across two or
//     more OS processes. A packet for a node of another shard is serialized
//     onto the one ordered link to that shard (Sharded.SendRemote); in-shard
//     packets take the local-immediate path.
//
// No delivery carries a closure: a node is told that something arrived.
//
// The contracts encode the concurrency discipline the upper layers rely on:
// at most one Proc of a given node runs at any instant (a node has one CPU),
// and a node's arrival hook executes inside that same mutual exclusion. The
// simulator gets this for free from its global event loop; the live backend
// enforces it per node, which is what lets the unmodified runtimes —
// schedulers, handler tables, buffer managers and all — run on real parallel
// hardware.
package transport

import (
	"time"

	"repro/internal/metrics"
)

// Proc is one schedulable context on a node: a simulated process on the
// simnet backend, a goroutine on the live backend. The thread scheduler
// builds its cooperative threads directly on these primitives.
//
// All methods except Unpark must be called from the Proc's own execution
// context. Unpark may be called from any execution context of the same node
// (another Proc, or the node's arrival function); it must not be called from
// a different node's context.
type Proc interface {
	// Park blocks the context until Unpark. If an Unpark permit is already
	// pending (wake raced ahead of sleep), Park consumes it and returns
	// immediately — gopark/goready semantics.
	Park()
	// Unpark makes a parked context runnable, or records a single permit if
	// it is not parked.
	Unpark()
	// Sleep accounts d of modelled CPU time. The simnet backend advances
	// virtual time by d while other nodes (and this node's message
	// arrivals) proceed; the live backend treats the modelled cost as
	// already paid by real execution and only opens a delivery window.
	// The threads package sleeps on the simulator only.
	Sleep(d time.Duration)
	// Deliver runs, in place and with the CPU held, the arrival function
	// once for the notifies that found this context's node busy: the
	// delivery point of a context that does not park. The simulator has
	// none to run — its arrivals are events, interleaved by Sleep.
	Deliver()
	// Name returns the debug name given at Go time.
	Name() string
}

// Sharded is the Backend extension of a backend whose nodes span two or more
// address spaces (the netlive backend: one OS process per shard): the shard
// topology, the one ordered link to each peer shard, and the stats control
// plane that rides it. A machine of one address space is not Sharded, and
// callers treat every node as local then.
type Sharded interface {
	// NumShards reports how many address spaces the machine spans: two or
	// more.
	NumShards() int
	// Shard returns this process's shard index (shard 0 is the parent).
	Shard() int
	// IsLocal reports whether node executes in this address space.
	IsLocal(node int) bool
	// ShardOf returns the shard that node executes in.
	ShardOf(node int) int
	// Quiesce ends the run across the shards: once two consecutive waves of
	// every shard's tally (messages sent and handled, threads made runnable
	// and blocked or exited; ok once none of its threads can run) read equal
	// balanced sums, over runs on every shard, on any goroutine. The runtime
	// calls the returned idle whenever a local node goes idle.
	Quiesce(tally func() (c [4]uint64, ok bool), over func()) (idle func())

	// SendRemote ships one packet to the shard owning dst over that shard's
	// link, consuming wp: the link encodes it straight into memory it owns (a
	// shared-memory ring slot it has reserved, or a pooled frame for a socket
	// writer). Which
	// of the two a link uses is fixed when the backend is built, never per
	// message, so per-sender delivery order to a destination is preserved
	// whatever the frame sizes. size is the modelled wire size of the packet.
	// Frames for a link that has failed or closed are dropped and counted.
	SendRemote(src, dst, size int, wp FrameMarshaler)
	// SetRemoteHandler installs the upcall for packets arriving from peer
	// shards. It is called before Run (the machine installs it when it is
	// built), and every goroutine that calls fn starts in Run, so fn is read
	// without synchronization. fn runs on whichever backend goroutine
	// consumes the link (a reader, or a proc of the shard polling while its
	// node idles, with the node's CPU released); payload is valid only for
	// the duration of the call (the backend recycles the frame memory). The bytes of a packet
	// come from another process: fn reports false for a payload it cannot
	// decode, which is malformed like any other frame that does not parse —
	// the link it came on is abandoned with one error naming the peer shard.
	SetRemoteHandler(fn func(src, dst, size int, payload []byte) bool)

	// SetStatsProvider installs the callback that serializes this shard's
	// stats payload (the netlive kStats frame body). The backend calls it
	// when the shard reports, at the end of the run. It may run on a backend goroutine
	// concurrently with node execution, so the provider must read
	// racily-safe state only (the machine's accounting and metrics are
	// atomic).
	SetStatsProvider(fn func() []byte)
	// PeerStats returns the latest stats payload received from each peer
	// shard, keyed by shard index. Only the parent (shard 0) receives peer
	// stats; workers get an empty map. Complete after Run returns on the
	// parent.
	PeerStats() map[int][]byte
}

// FrameMarshaler is a packet payload that can cross an address-space
// boundary by serializing itself into caller-provided memory (the am layer's
// Msg does). EncodeWire consumes the payload: pooled resources it holds are
// released, and the caller must not touch it afterwards.
type FrameMarshaler interface {
	// WireLen returns the serialized length.
	WireLen() int
	// EncodeWire serializes into b (len(b) >= WireLen()) and returns the
	// bytes written, consuming the payload.
	EncodeWire(b []byte) int
}

// WallClock is what every backend but the simulator implements (live, and
// netlive within a shard), and machine.NewWithBackend requires it of them: it
// ignores the modelled latency and delivers immediately, and it records
// wall-clock metrics. The simulator records none, and every recording site
// above the seam nil-checks the registry, so it pays nothing for them.
//
// The machine installs one arrival function with SetArrival when it is built,
// before Run. The caller of DeliverDirect has already made the payload visible
// in dst's inbound queue (the machine's queues are individually thread-safe),
// which fixes per-sender order; DeliverDirect then runs the arrival function
// for dst in dst's execution context: on the caller when dst's CPU is free,
// otherwise on whoever holds that CPU, before it lets go. It never blocks.
// Notifies coalesce: the function runs at least once after each DeliverDirect,
// not once per call.
//
// local marks a send by a proc of this address space running in its own
// node's context; a link arrival or a wake-up is not one. The arrival function
// learns it (its local argument) only when it runs on that caller, having
// found dst's CPU free; a pended notify runs it on the holder with local
// false.
type WallClock interface {
	SetArrival(fn func(node int, local bool))
	DeliverDirect(dst int, local bool)
	// NodeMetrics returns the registry recording for node, or nil when the
	// node is not local to this address space.
	NodeMetrics(node int) *metrics.Registry
	// MetricsSnapshot merges this address space's registries (per-node plus
	// any backend-plane registry) into one snapshot.
	MetricsSnapshot() metrics.Snapshot
}

// Backend is an execution substrate for a multicomputer of NumNodes nodes.
//
// The per-node serialization contract: for any node i, at most one of the
// following runs at any instant — a Proc created with Go(i, ...), or node
// i's arrival function. Arrivals and Procs of different nodes may run in
// parallel. A backend has no timers: a run ends when its work does.
type Backend interface {
	// Name identifies the backend in reports ("sim", "live" or "net").
	Name() string
	// NumNodes returns the number of nodes the backend was built for.
	NumNodes() int
	// Now returns the backend clock (virtual time, or monotonic wall time),
	// the one clock of the machine and of every Proc on it.
	Now() time.Duration
	// Go creates a Proc on node, running fn. Procs created before Run start
	// executing when Run is called; Procs created during Run start
	// immediately (subject to node serialization).
	Go(node int, name string, fn func(Proc)) Proc
	// Run executes until every Proc has finished. It returns an error if
	// the system cannot make progress (simnet: event queue drained with
	// procs parked; live and netlive: the run was aborted — by a failure
	// below it, or by the watchdog expiring with procs still alive).
	Run() error
}
