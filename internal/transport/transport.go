// Package transport defines the backend seam between the machine model and
// the substrate that actually executes it.
//
// Everything above this interface — the machine's nodes and accounting, the
// cooperative threads package, the Active Messages engine, and both language
// runtimes — is written against two small contracts:
//
//   - Proc: a schedulable context with park/unpark/sleep semantics, exactly
//     the primitives the thread scheduler hands CPUs around with;
//   - Backend: node-affined process creation, message delivery into a node's
//     execution context, timers, and a clock.
//
// Two implementations exist:
//
//   - transport/simnet wraps the deterministic discrete-event engine
//     (internal/sim) calibrated to the paper's 1997 IBM SP. Virtual time
//     advances by the configured costs; runs are reproducible bit-for-bit.
//   - transport/live maps every Proc to a real goroutine and the clock to
//     time.Now(). Nodes execute with true hardware concurrency; modelled
//     latencies are ignored and messages travel as fast as the machine
//     allows.
//
// The contracts encode the concurrency discipline the upper layers rely on:
// at most one Proc of a given node runs at any instant (a node has one CPU),
// and delivery/timer callbacks for a node execute inside that same mutual
// exclusion. The simulator gets this for free from its global event loop; the
// live backend enforces it per node, which is what lets the unmodified
// runtimes — schedulers, handler tables, buffer managers and all — run on
// real parallel hardware.
package transport

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// Proc is one schedulable context on a node: a simulated process on the
// simnet backend, a goroutine on the live backend. The thread scheduler
// builds its cooperative threads directly on these primitives.
//
// All methods except Unpark must be called from the Proc's own execution
// context. Unpark may be called from any execution context of the same node
// (another Proc, or a delivery/timer callback); it must not be called from a
// different node's context.
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
	Sleep(d time.Duration)
	// Now returns the backend clock: virtual time on simnet, wall-clock
	// time on live.
	Now() time.Duration
	// Name returns the debug name given at Go time.
	Name() string
}

// Topology is an optional Backend extension for backends whose nodes are
// sharded across address spaces (the netlive backend: one OS process per
// shard). Single-address-space backends simply do not implement it; callers
// treat every node as local then.
type Topology interface {
	// NumShards reports how many address spaces the machine spans.
	NumShards() int
	// Shard returns this process's shard index (shard 0 is the parent).
	Shard() int
	// IsLocal reports whether node executes in this address space.
	IsLocal(node int) bool
	// LocalNodes returns the nodes of this shard, in ID order.
	LocalNodes() []int
	// LocalQuiesced tells the backend that every node program of this shard
	// has finished. fn runs exactly once — possibly on an internal backend
	// goroutine — after every shard of the machine has quiesced; runtimes use
	// it to begin their (grace-delayed) machine-wide shutdown, so that a
	// shard whose programs finished early keeps serving remote invocations
	// until the whole machine is done.
	LocalQuiesced(fn func())
}

// ShardBackend is the message plane of a sharded backend: the machine layer
// routes packets for non-local nodes through DeliverRemote as serialized
// frames, and receives frames from peer shards through the handler installed
// with SetRemoteHandler.
type ShardBackend interface {
	Topology
	// DeliverRemote ships an encoded packet payload to the shard owning dst.
	// Ownership of frame transfers to the backend (released after the bytes
	// are on the wire). size is the modelled wire size of the packet.
	// Per-sender delivery order to a given destination is preserved.
	DeliverRemote(src, dst, size int, frame *wire.Buf)
	// SetRemoteHandler installs the upcall for packets arriving from peer
	// shards. fn runs on a backend reader goroutine; payload is valid only
	// for the duration of the call (the backend recycles the frame buffer).
	SetRemoteHandler(fn func(src, dst, size int, payload []byte))
}

// FrameMarshaler is a packet payload that can serialize itself into
// caller-provided memory (structurally identical to the machine layer's
// WirePayload, restated here so the transport seam does not import the
// machine). EncodeWire consumes the payload: pooled resources it holds are
// released, and the caller must not touch it afterwards.
type FrameMarshaler interface {
	// WireLen returns the serialized length.
	WireLen() int
	// EncodeWire serializes into b (len(b) >= WireLen()) and returns the
	// bytes written, consuming the payload.
	EncodeWire(b []byte) int
}

// SlotSender is an optional extension of sharded backends with a zero-copy
// frame fast path: instead of encoding into a pooled frame and handing it
// to DeliverRemote, the machine layer offers the payload's marshaler and
// the backend serializes it directly into transport-owned memory (a
// shared-memory ring slot on the netlive backend).
type SlotSender interface {
	// DeliverSlot marshals wp straight into a transport slot bound for the
	// shard owning dst and reports true. False means no slot path to that
	// shard exists right now (not co-resident, disabled, or the ring is
	// unusable); wp has NOT been consumed and the caller must fall back to
	// the DeliverRemote frame path. Per-sender delivery order to a given
	// destination is preserved among slot-delivered frames; a configuration
	// switches between slot and frame paths only at construction, never
	// mid-stream, so the two paths do not reorder against each other.
	DeliverSlot(src, dst, size int, wp FrameMarshaler) bool
}

// MetricsSource is an optional Backend extension for backends that record
// wall-clock metrics (the live and netlive backends). The simulator does not
// implement it — its virtual time is already the full instrumented story —
// and every recording site above the seam nil-checks the registry, so a
// backend without metrics pays nothing.
type MetricsSource interface {
	// NodeMetrics returns the registry recording for node, or nil when the
	// node is not local to this address space.
	NodeMetrics(node int) *metrics.Registry
	// MetricsSnapshot merges this address space's registries (per-node plus
	// any backend-plane registry) into one snapshot.
	MetricsSnapshot() metrics.Snapshot
}

// StatsPlane is an optional extension of sharded backends carrying the
// control-plane stats protocol (the netlive kStats frame): each worker shard
// serializes a stats payload — the machine layer provides it — and ships it
// to shard 0, which merges all shards into one machine-wide report.
type StatsPlane interface {
	// SetStatsProvider installs the callback that serializes this shard's
	// stats payload. The backend calls it when a shard reports: at quiesce
	// (always) and on a parent-initiated request. It may run on a backend
	// goroutine concurrently with node execution, so the provider must read
	// racily-safe state only (the machine's accounting and metrics are
	// atomic).
	SetStatsProvider(fn func() []byte)
	// PeerStats returns the latest stats payload received from each peer
	// shard, keyed by shard index. Only the parent (shard 0) receives peer
	// stats; workers get an empty map. Complete after Run returns on the
	// parent.
	PeerStats() map[int][]byte
	// RequestStats asks every peer shard to report its stats now (mid-run
	// sampling). Fire-and-forget: fresh payloads show up in PeerStats as they
	// arrive. Parent only.
	RequestStats()
}

// DirectDeliverer is an optional Backend fast path for backends that ignore
// the modelled latency and deliver immediately (the live backend). The
// caller has already run the enqueue step itself (the machine's inbound
// queues are individually thread-safe), and notify is a long-lived closure —
// one per destination node, built once — so a delivery constructs no
// closures and performs no allocations. Semantics are exactly
// Deliver(dst, 0, <already performed>, notify).
type DirectDeliverer interface {
	DeliverDirect(dst int, notify func())
}

// Backend is an execution substrate for a multicomputer of NumNodes nodes.
//
// The per-node serialization contract: for any node i, at most one of the
// following runs at any instant — a Proc created with Go(i, ...), a notify
// callback passed to Deliver(i, ...), or a timer callback passed to
// After(i, ...). Callbacks and Procs of different nodes may run in parallel.
type Backend interface {
	// Name identifies the backend in reports ("sim" or "live").
	Name() string
	// NumNodes returns the number of nodes the backend was built for.
	NumNodes() int
	// Now returns the backend clock (virtual time, or monotonic wall time).
	Now() time.Duration
	// Go creates a Proc on node, running fn. Procs created before Run start
	// executing when Run is called; Procs created during Run start
	// immediately (subject to node serialization).
	Go(node int, name string, fn func(Proc)) Proc
	// Deliver transports one message to dst: enqueue makes the payload
	// visible in the destination's inbound queue, notify wakes the
	// destination's reception. enqueue happens before notify, each exactly
	// once. modelLatency is the modelled wire delay: simnet delays both
	// callbacks by it; live ignores it (the real wire is the real latency)
	// and runs enqueue immediately so the payload is visible to pollers,
	// then runs notify in dst's execution context — on the caller when
	// dst's CPU is free, otherwise queued to dst's delivery worker, which
	// batches. Per-sender delivery order to a given destination is
	// preserved (the order of enqueue; notifies may be reordered or
	// coalesced).
	Deliver(dst int, modelLatency time.Duration, enqueue, notify func())
	// After schedules fn to run in node's execution context after delay d
	// (virtual on simnet, wall on live).
	After(node int, d time.Duration, fn func())
	// Run executes until every Proc has finished. It returns an error if
	// the system cannot make progress (simnet: event queue drained with
	// procs parked; live: watchdog expired with procs still alive).
	Run() error
}
