// Package conformance is a backend-independent test suite for the transport
// contract as the upper layers actually consume it: it drives the real
// machine/threads/am stack over a backend factory and checks the semantics
// every runtime depends on — per-sender message ordering, bulk payload
// integrity with copy-at-send, handler run-to-completion (per-node mutual
// exclusion), and park/unpark wakeups.
//
// Backends register themselves by calling Run from an ordinary test:
//
//	func TestLive(t *testing.T) {
//		conformance.Run(t, func(cfg machine.Config, n int) *machine.Machine {
//			return machine.NewWithBackend(cfg, n, live.New(n, live.Options{}))
//		})
//	}
//
// The suite asserts results, never timings, so the calibrated simulator and
// the wall-clock live backend must pass identically.
//
// Sharded backends can additionally run the suite across several co-resident
// machines via RunSharded: the factory returns one machine per shard (shard 0
// first), all inside the test process, and the rig mirrors the SPMD launch
// model — identical handler registration on every shard, schedulers and node
// programs only on the shard that owns each node. This is how the netlive
// shared-memory ring path runs the full suite under -race.
package conformance

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/am"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/threads"
	"repro/internal/transport"
)

// Factory builds a fresh machine with n nodes on the backend under test.
type Factory func(cfg machine.Config, n int) *machine.Machine

// ShardedFactory builds one machine per co-resident shard for an n-node
// run — shard 0 (the parent/stats shard) first. A single-address-space
// backend returns exactly one machine.
type ShardedFactory func(cfg machine.Config, n int) []*machine.Machine

// Run executes the full conformance suite against the backend.
func Run(t *testing.T, f Factory) {
	RunSharded(t, func(cfg machine.Config, n int) []*machine.Machine {
		return []*machine.Machine{f(cfg, n)}
	})
}

// RunSharded executes the full conformance suite over a multi-machine
// (sharded, co-resident) configuration.
func RunSharded(t *testing.T, f ShardedFactory) {
	t.Run("ShortOrdering", func(t *testing.T) { shortOrdering(t, f) })
	t.Run("BulkIntegrity", func(t *testing.T) { bulkIntegrity(t, f) })
	t.Run("PayloadRecycling", func(t *testing.T) { payloadRecycling(t, f) })
	t.Run("HandlerRunToCompletion", func(t *testing.T) { runToCompletion(t, f) })
	t.Run("ParkUnpark", func(t *testing.T) { parkUnpark(t, f) })
	t.Run("BusyDestination", func(t *testing.T) { busyDestination(t, f) })
	t.Run("PollDelivers", func(t *testing.T) { pollDelivers(t, f) })
	t.Run("CoalescedArrivals", func(t *testing.T) { coalescedArrivals(t, f) })
	t.Run("InterruptAndPended", func(t *testing.T) { interruptAndPended(t, f) })
	t.Run("CrossShardTraffic", func(t *testing.T) { crossShardTraffic(t, f, false) })
	t.Run("MixedSizes", func(t *testing.T) { crossShardTraffic(t, f, true) })
	t.Run("TwoCallersOneNode", func(t *testing.T) { twoCallersOneNode(t, f) })
	t.Run("TwoWaitersOneNode", func(t *testing.T) { twoWaitersOneNode(t, f) })
	t.Run("OneWayChain", func(t *testing.T) { oneWayChain(t, f) })
	t.Run("Collectives", func(t *testing.T) { runCollectives(t, f) })
	t.Run("DistAccess", func(t *testing.T) { distAccess(t, f) })
	t.Run("Futures", func(t *testing.T) { futuresCase(t, f) })
	t.Run("ValueOwnership", func(t *testing.T) { valueOwnership(t, f) })
	t.Run("SplitC", func(t *testing.T) { splitC(t, f) })
	t.Run("GlobalPointers", func(t *testing.T) { globalPointers(t, f) })
	t.Run("StatsMerge", func(t *testing.T) { statsMerge(t, f) })
}

// rig wires an AM net per machine with one scheduler per node, built on the
// machine that owns the node. With a single machine it degenerates to the
// classic one-net rig; with several, it reproduces in-process what the SPMD
// re-exec harness does across processes.
type rig struct {
	ms     []*machine.Machine
	m      *machine.Machine // ms[0]: the parent/stats shard
	nets   []*am.Net        // parallel to ms; identical registration order
	owner  []int            // node -> index into ms
	scheds []*threads.Scheduler
}

// localTo reports whether node i executes in m's address space.
func localTo(m *machine.Machine, i int) bool {
	if topo, ok := m.Backend().(transport.Sharded); ok {
		return topo.IsLocal(i)
	}
	return true
}

func newRig(ms []*machine.Machine) *rig {
	r := &rig{ms: ms, m: ms[0]}
	n := ms[0].NumNodes()
	r.owner = make([]int, n)
	r.scheds = make([]*threads.Scheduler, n)
	for k, m := range ms {
		net := am.NewNet(m, am.Profile{})
		r.nets = append(r.nets, net)
		for i := 0; i < n; i++ {
			if localTo(m, i) && r.scheds[i] == nil {
				s := threads.NewScheduler(m.Node(i))
				net.Endpoint(i).Attach(s)
				r.scheds[i] = s
				r.owner[i] = k
			}
		}
	}
	for i, s := range r.scheds {
		if s == nil {
			panic(fmt.Sprintf("conformance: no machine owns node %d", i))
		}
	}
	return r
}

// register installs a handler on every machine's net, in the same order —
// the identical-registration requirement of the SPMD launch model. The one
// shared closure is only ever invoked on the machine owning the destination
// node, so case-local result variables stay single-writer.
func (r *rig) register(name string, h am.Handler) am.HandlerID {
	var id am.HandlerID
	for _, net := range r.nets {
		id = net.Register(name, h)
	}
	return id
}

// ep returns node i's endpoint on its owning machine.
func (r *rig) ep(i int) *am.Endpoint { return r.nets[r.owner[i]].Endpoint(i) }

// run executes every machine concurrently and joins their errors.
func (r *rig) run() error { return runAll(r.ms) }

func runAll(ms []*machine.Machine) error {
	if len(ms) == 1 {
		return ms[0].Run()
	}
	errs := make([]error, len(ms))
	var wg sync.WaitGroup
	for k, m := range ms {
		wg.Add(1)
		go func(k int, m *machine.Machine) {
			defer wg.Done()
			errs[k] = m.Run()
		}(k, m)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// shortOrdering: short messages from one sender arrive and are handled in
// send order.
func shortOrdering(t *testing.T, f ShardedFactory) {
	const k = 200
	r := newRig(f(machine.SP1997(), 2))
	var (
		got     []uint64
		arrived am.Count
	)
	h := r.register("conf.seq", func(th *threads.Thread, m am.Msg) {
		got = append(got, m.A[0])
		arrived.Advance(th, 1)
	})
	r.scheds[0].Start("sender", func(th *threads.Thread) {
		for i := 0; i < k; i++ {
			r.ep(0).Request(th, 1, h, [4]uint64{uint64(i)}, nil, false)
		}
	})
	r.scheds[1].Start("receiver", func(th *threads.Thread) {
		r.ep(1).Await(th, &arrived, k)
	})
	if err := r.run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != k {
		t.Fatalf("received %d messages, want %d", len(got), k)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("message %d carried seq %d: delivery reordered (%v...)", i, v, got[:i+1])
		}
	}
}

// bulkIntegrity: bulk payloads arrive intact, are copied at send time (the
// sender may immediately reuse its buffer), and a handler that copies the
// payload out keeps a stable snapshot after the pooled buffer recycles (the
// no-retain contract: the raw Payload slice is valid only while the handler
// runs; retention means copying).
func bulkIntegrity(t *testing.T, f ShardedFactory) {
	const (
		k     = 40
		bytes = 1 << 10
	)
	pattern := func(i, j int) byte { return byte(i*31 + j*7) }
	r := newRig(f(machine.SP1997(), 2))
	var (
		received am.Count
		retained []byte // copy of message 0's payload, checked at the end
		bad      string
	)
	h := r.register("conf.bulk", func(th *threads.Thread, m am.Msg) {
		i := int(m.A[0])
		if len(m.Payload) != bytes {
			bad = fmt.Sprintf("message %d: payload %dB, want %dB", i, len(m.Payload), bytes)
		}
		for j, b := range m.Payload {
			if b != pattern(i, j) {
				bad = fmt.Sprintf("message %d byte %d: got %#x want %#x", i, j, b, pattern(i, j))
				break
			}
		}
		if i == 0 {
			retained = append([]byte(nil), m.Payload...)
		}
		received.Advance(th, 1)
	})
	r.scheds[0].Start("sender", func(th *threads.Thread) {
		buf := make([]byte, bytes)
		for i := 0; i < k; i++ {
			for j := range buf {
				buf[j] = pattern(i, j)
			}
			r.ep(0).Request(th, 1, h, [4]uint64{uint64(i)}, buf, true)
			// Clobber the buffer immediately: the layer promised value
			// semantics at send time.
			for j := range buf {
				buf[j] = 0xFF
			}
		}
	})
	r.scheds[1].Start("receiver", func(th *threads.Thread) {
		r.ep(1).Await(th, &received, k)
	})
	if err := r.run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if bad != "" {
		t.Fatal(bad)
	}
	if received.Value() != k {
		t.Fatalf("received %d bulk messages, want %d", received.Value(), k)
	}
	for j, b := range retained {
		if b != pattern(0, j) {
			t.Fatalf("retained payload copy byte %d mutated to %#x", j, b)
		}
	}
}

// payloadRecycling: the aliasing-safety contract of the pooled wire path. A
// recycled payload buffer must never be observed mutated by a later send
// while a handler is still inside its run-to-completion window: two sender
// nodes blast one receiver with bulk messages (maximum buffer churn — every
// send acquires whatever buffer the pool hands back), and the handler reads
// its entire payload twice with a scheduling point in between. If a buffer
// were recycled while still being read, the second pass (or, under -race,
// the race detector) would see the next message's bytes. A payload copied
// out by an early handler is re-verified at the end, long after its buffer
// has been recycled many times over.
func payloadRecycling(t *testing.T, f ShardedFactory) {
	const (
		senders = 2
		k       = 120
		bytes   = 1 << 10
	)
	pattern := func(s, i, j int) byte { return byte(s*131 + i*31 + j*7) }
	r := newRig(f(machine.SP1997(), senders+1))
	var (
		received am.Count
		snapshot []byte // copy taken by handler (sender 1, message 0)
		bad      string
	)
	h := r.register("conf.recycle", func(th *threads.Thread, m am.Msg) {
		s, i := int(m.A[0]), int(m.A[1])
		if len(m.Payload) != bytes {
			bad = fmt.Sprintf("s%d msg %d: payload %dB, want %dB", s, i, len(m.Payload), bytes)
			received.Advance(th, 1)
			return
		}
		// First pass: contents must match this message's pattern.
		for j, b := range m.Payload {
			if b != pattern(s, i, j) {
				bad = fmt.Sprintf("s%d msg %d byte %d: got %#x want %#x (buffer aliased by a later send?)",
					s, i, j, b, pattern(s, i, j))
				break
			}
		}
		// Widen the window, then re-read: the buffer must still be ours for
		// the whole run-to-completion of this handler.
		runtime.Gosched()
		for j, b := range m.Payload {
			if b != pattern(s, i, j) {
				bad = fmt.Sprintf("s%d msg %d byte %d mutated mid-handler to %#x (recycled too early)",
					s, i, j, b)
				break
			}
		}
		if s == 1 && i == 0 {
			snapshot = append([]byte(nil), m.Payload...)
		}
		received.Advance(th, 1)
	})
	for s := 1; s <= senders; s++ {
		s := s
		r.scheds[s].Start("sender", func(th *threads.Thread) {
			buf := make([]byte, bytes)
			for i := 0; i < k; i++ {
				for j := range buf {
					buf[j] = pattern(s, i, j)
				}
				r.ep(s).Request(th, 0, h, [4]uint64{uint64(s), uint64(i)}, buf, true)
			}
		})
	}
	r.scheds[0].Start("receiver", func(th *threads.Thread) {
		r.ep(0).Await(th, &received, senders*k)
	})
	if err := r.run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if bad != "" {
		t.Fatal(bad)
	}
	if received.Value() != senders*k {
		t.Fatalf("received %d bulk messages, want %d", received.Value(), senders*k)
	}
	for j, b := range snapshot {
		if b != pattern(1, 0, j) {
			t.Fatalf("copied-out payload byte %d mutated to %#x after recycling", j, b)
		}
	}
}

// runToCompletion: a handler runs to completion in its node's execution
// context — no other handler (or arrival hook) of the same node
// interleaves with it, even with multiple remote senders blasting the node
// concurrently on a real-concurrency backend.
func runToCompletion(t *testing.T, f ShardedFactory) {
	const (
		senders = 3
		k       = 150
	)
	r := newRig(f(machine.SP1997(), senders+1))
	var (
		counter   int
		handled   am.Count
		inHandler bool
		reentered bool
	)
	h := r.register("conf.rtc", func(th *threads.Thread, _ am.Msg) {
		if inHandler {
			reentered = true
		}
		inHandler = true
		// A lost update here would reveal another context interleaving
		// mid-handler; Gosched widens the window on the live backend.
		v := counter
		runtime.Gosched()
		counter = v + 1
		inHandler = false
		handled.Advance(th, 1)
	})
	for s := 1; s <= senders; s++ {
		s := s
		r.scheds[s].Start("sender", func(th *threads.Thread) {
			for i := 0; i < k; i++ {
				r.ep(s).Request(th, 0, h, [4]uint64{}, nil, false)
			}
		})
	}
	r.scheds[0].Start("receiver", func(th *threads.Thread) {
		r.ep(0).Await(th, &handled, senders*k)
	})
	if err := r.run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if reentered {
		t.Fatal("handler re-entered before running to completion")
	}
	if counter != senders*k {
		t.Fatalf("counter %d, want %d (lost updates => handlers interleaved)", counter, senders*k)
	}
}

// busyDestination: messages that land while the destination's CPU is
// occupied are not lost. Node 1's only thread charges in a loop without ever
// parking until all k sends have landed — on the live backend every one of
// their notifies finds the CPU busy, so this is the pending-list path (the
// thread's own charges run them) — and only then waits on the network. Every
// message must be handled.
func busyDestination(t *testing.T, f ShardedFactory) {
	const k = 100
	r := newRig(f(machine.SP1997(), 2))
	var got am.Count
	h := r.register("conf.busy", func(th *threads.Thread, _ am.Msg) { got.Advance(th, 1) })
	r.scheds[0].Start("sender", func(th *threads.Thread) {
		for i := 0; i < k; i++ {
			r.ep(0).Request(th, 1, h, [4]uint64{}, nil, false)
		}
	})
	r.scheds[1].Start("busy", func(th *threads.Thread) {
		for r.ep(1).Node().InboxLen() < k {
			th.Compute(time.Microsecond)
		}
		r.ep(1).Await(th, &got, k)
	})
	if err := r.run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.Value() != k {
		t.Fatalf("handled %d messages, want %d", got.Value(), k)
	}
}

// pollDelivers: a thread that never parks — it computes and polls in a loop,
// as a server under a stream of requests does — still lets its node's
// arrivals in. Node 1 sends node 0 one message while node 0's
// thread spins, so the arrival's notify finds node 0's CPU busy. On the
// simulator the arrival is an event that fires during a compute charge; on
// the wall-clock backends a charge is not work, and the poll is the thread's
// delivery point. The poll finds the message in the inbox either way, so the
// test watches the notify itself.
func pollDelivers(t *testing.T, f ShardedFactory) {
	r := newRig(f(machine.SP1997(), 2))
	h := r.register("conf.nudge", func(*threads.Thread, am.Msg) {})
	node := r.ep(0).Node()
	arrival := node.OnArrival
	notified, seen := false, false // node 0 state
	node.OnArrival = func() { notified = true; arrival() }
	var spinning atomic.Bool
	var waited time.Duration
	r.scheds[0].Start("spinner", func(th *threads.Thread) {
		spinning.Store(true)
		start := time.Now()
		for !notified && time.Since(start) < 5*time.Second {
			th.Compute(time.Microsecond)
			r.ep(0).Poll(th)
		}
		seen, waited = notified, time.Since(start)
	})
	r.scheds[1].Start("sender", func(th *threads.Thread) {
		th.Compute(time.Millisecond)
		for !spinning.Load() {
			time.Sleep(time.Millisecond) // wall-clock only: the simulator's spinner is already running
		}
		r.ep(1).Request(th, 0, h, [4]uint64{}, nil, false)
	})
	if err := r.run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !seen {
		t.Fatalf("an arrival's notify never got the CPU from a thread that computes and polls for %v without parking", waited)
	}
}

// coalescedArrivals: arrivals that pile up behind a busy node are one notify,
// and that one is enough. k threads of node 0 each await their own count;
// node 1 sends one message per thread while a spinner holds node 0's CPU
// without polling, so on the wall clock every notify pends and the k of them
// are one run of the arrival hook, which wakes one waiter. Then the spinner
// parks. Every thread must finish, and every message must be handled exactly
// once: the waiter the arrival woke drains the inbox, and the handlers it runs
// ready the others.
func coalescedArrivals(t *testing.T, f ShardedFactory) {
	const k = 8
	r := newRig(f(machine.SP1997(), 2))
	var counts [k]am.Count
	var handled [k]int // node 0 state
	h := r.register("conf.mine", func(th *threads.Thread, m am.Msg) {
		handled[m.A[0]]++
		counts[m.A[0]].Advance(th, 1)
	})
	node := r.ep(0).Node()
	// On the wall clock the spinner waits until every notify has pended; on
	// the simulator, until every message has arrived.
	arrived := func() bool {
		if node.Met != nil {
			return node.Met.Counter(metrics.CtrNotifies) >= k
		}
		return node.InboxLen() >= k
	}
	var spinning atomic.Bool
	var waiting int      // node 0 state
	var finished [k]bool // node 0 state
	r.scheds[0].Start("spinner", func(th *threads.Thread) {
		var join threads.WaitGroup
		join.Add(k)
		for i := 0; i < k; i++ {
			i := i
			th.Spawn(fmt.Sprintf("waiter%d", i), func(t2 *threads.Thread) {
				waiting++
				r.ep(0).Await(t2, &counts[i], 1)
				finished[i] = true
				join.Done(t2)
			})
		}
		for waiting < k {
			th.Yield()
		}
		spinning.Store(true)
		for start := time.Now(); !arrived() && time.Since(start) < 5*time.Second; {
			th.Compute(time.Microsecond) // no poll: the CPU stays busy
		}
		join.Wait(th)
	})
	r.scheds[1].Start("sender", func(th *threads.Thread) {
		th.Compute(time.Millisecond)
		for !spinning.Load() {
			time.Sleep(time.Millisecond) // wall-clock only: the simulator's spinner is already running
		}
		for i := 0; i < k; i++ {
			r.ep(1).Request(th, 0, h, [4]uint64{uint64(i)}, nil, false)
		}
	})
	if err := r.run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < k; i++ {
		if !finished[i] || handled[i] != 1 {
			t.Fatalf("waiters finished %v, messages handled %v; want every waiter finished, every message handled once", finished, handled)
		}
	}
	if node.Met != nil {
		met := node.Met.Snapshot()
		if n, b := met.Counter(metrics.CtrNotifies), met.Hist(metrics.HstPollBatch).Max; n < k || b < k {
			t.Fatalf("%d of %d notifies pended, largest batch %d; want all %d pended while the spinner held the CPU, in one batch", n, k, b, k)
		}
	}
}

// crossShardTraffic: ordering plus bulk integrity on the node pair that is
// most remote in the backend's topology — on a sharded backend (netlive)
// node 0 and node n-1 live in different address spaces, so this is the
// serialized path; single-address-space backends run the identical pattern
// in memory, which is exactly the conformance claim: the application cannot
// tell. Shorts and bulks interleave from one sender.
//
// As CrossShardTraffic the bulks are 2 KiB and each kind must arrive in send
// order with intact payloads (cross-kind order is not part of the contract
// under the calibrated profile — short and bulk messages have different
// modelled wire times).
//
// As MixedSizes (mixed) the bulks are 4 KiB and one is 20 KiB, and the whole
// stream must arrive in send order: the sharded configurations force their
// rings down to 8 KiB, so every bulk is over the ring's quarter-ring record
// limit and one is larger than the whole ring — the frames a transport is
// tempted to route around its fast path, which is how the short sent after a
// bulk overtakes it. The modelled per-byte gap is zeroed so the simulator's
// wire latency is the same for every size and send order is its contract
// too.
func crossShardTraffic(t *testing.T, f ShardedFactory, mixed bool) {
	const (
		nodes = 4
		k     = 60
		huge  = 20 << 10
	)
	cfg := machine.SP1997()
	size := func(int) int { return 2 << 10 }
	if mixed {
		cfg.GapPerByte = 0
		size = func(i int) int {
			if i == k/2 {
				return huge
			}
			return 4 << 10
		}
	}
	pattern := func(i, j int) byte { return byte(i*37 + j*11) }
	r := newRig(f(cfg, nodes))
	dst := nodes - 1
	if topo, ok := r.m.Backend().(transport.Sharded); ok && topo.IsLocal(dst) {
		t.Fatalf("topology says node %d is local to shard %d; pick a remote pair", dst, topo.Shard())
	}
	var (
		got     []uint64 // in arrival order: 2i for short i, 2i+1 for the bulk sent after it
		arrived am.Count
		bad     string
	)
	hShort := r.register("conf.xs.short", func(th *threads.Thread, m am.Msg) {
		got = append(got, 2*m.A[0])
		arrived.Advance(th, 1)
	})
	hBulk := r.register("conf.xs.bulk", func(th *threads.Thread, m am.Msg) {
		i := int(m.A[0])
		if len(m.Payload) != size(i) {
			bad = fmt.Sprintf("bulk %d: %dB payload, want %d", i, len(m.Payload), size(i))
		}
		for j, by := range m.Payload {
			if by != pattern(i, j) {
				bad = fmt.Sprintf("bulk %d byte %d: %#x want %#x", i, j, by, pattern(i, j))
				break
			}
		}
		got = append(got, 2*m.A[0]+1)
		arrived.Advance(th, 1)
	})
	r.scheds[0].Start("sender", func(th *threads.Thread) {
		ep := r.ep(0)
		buf := make([]byte, huge)
		for i := 0; i < k; i++ {
			ep.Request(th, dst, hShort, [4]uint64{uint64(i)}, nil, false)
			b := buf[:size(i)]
			for j := range b {
				b[j] = pattern(i, j)
			}
			ep.Request(th, dst, hBulk, [4]uint64{uint64(i)}, b, true)
			for j := range b {
				b[j] = 0xAA // copy-at-send: clobbering must not be visible
			}
		}
	})
	r.scheds[dst].Start("receiver", func(th *threads.Thread) {
		r.ep(dst).Await(th, &arrived, 2*k)
	})
	if err := r.run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if bad != "" {
		t.Fatal(bad)
	}
	// next[0], next[1]: the short and the bulk expected next.
	for at, next := 0, [2]uint64{}; at < len(got); at++ {
		v := got[at]
		if v/2 != next[v%2] || (mixed && v != uint64(at)) {
			t.Fatalf("stream reordered at %d (2i: short i, 2i+1: the bulk after it): %v", at, got[:at+1])
		}
		next[v%2]++
	}
}

// statsMerge: the machine-wide stats report is the exact sum of its parts.
// After real traffic, ClusterStats' merged accounting must equal both the
// merge of every shard's reported accounting and the merge of every node's
// own accounting, and (on backends with a wall-clock metrics plane) the
// merged metrics must equal the merge of the per-shard metrics snapshots.
// This is the parity claim behind every machine-wide counter mpmdbench
// reports: merged == sum of the parts, nothing fabricated, nothing dropped.
func statsMerge(t *testing.T, f ShardedFactory) {
	const (
		nodes = 4
		k     = 80
	)
	r := newRig(f(machine.SP1997(), nodes))
	var got am.Count
	h := r.register("conf.stats", func(th *threads.Thread, _ am.Msg) { got.Advance(th, 1) })
	r.scheds[0].Start("sender", func(th *threads.Thread) {
		for i := 0; i < k; i++ {
			r.ep(0).Request(th, nodes-1, h, [4]uint64{uint64(i)}, nil, false)
		}
	})
	r.scheds[nodes-1].Start("receiver", func(th *threads.Thread) {
		r.ep(nodes-1).Await(th, &got, k)
	})
	if err := r.run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	cs, err := r.m.ClusterStats()
	if err != nil {
		t.Fatalf("ClusterStats: %v", err)
	}
	// Merged accounting == sum over reported shards.
	shardAccts := make([]machine.Snapshot, 0, len(cs.Shards))
	shardMets := make([]metrics.Snapshot, 0, len(cs.Shards))
	seen := 0
	for _, ss := range cs.Shards {
		// The run has ended: on every shard each thread made runnable has
		// blocked or exited since.
		if rd, pk := ss.Acct.Counters[machine.CntThreadReadied], ss.Acct.Counters[machine.CntThreadParked]; rd != pk || rd == 0 {
			t.Errorf("shard %d: thread.readied %d, thread.parked %d at the end of the run; want them equal and non-zero", ss.Shard, rd, pk)
		}
		shardAccts = append(shardAccts, ss.Acct)
		shardMets = append(shardMets, ss.Metrics)
		seen += len(ss.Nodes)
	}
	if seen != nodes {
		t.Fatalf("shards cover %d nodes, want %d", seen, nodes)
	}
	if want := machine.MergeSnapshots(shardAccts...); cs.Acct != want {
		t.Fatalf("merged acct != sum of shard accts:\n got %v\nwant %v", cs.Acct, want)
	}
	// Merged accounting == sum over the nodes themselves. Every shard is
	// co-resident in this test process, so each node's truth is directly
	// observable on the machine that owns it.
	nodeAccts := make([]machine.Snapshot, 0, nodes)
	for i := 0; i < nodes; i++ {
		nodeAccts = append(nodeAccts, r.ms[r.owner[i]].Nodes()[i].Acct.Snapshot())
	}
	if want := machine.MergeSnapshots(nodeAccts...); cs.Acct != want {
		t.Fatalf("merged acct != sum of per-node accts:\n got %v\nwant %v", cs.Acct, want)
	}
	if n := cs.Acct.Counters[machine.CntMsgShort]; n < k {
		t.Fatalf("merged am.msg.short = %d, want >= %d", n, k)
	}
	if n := cs.Acct.Counters[machine.CntHandlersRun]; n < k {
		t.Fatalf("merged am.handlers = %d, want >= %d", n, k)
	}
	// Wall-clock metrics: present on live backends, absent on the simulator;
	// when present the merged snapshot must equal the merge of the parts.
	if _, ok := r.m.Metrics(); ok {
		if want := metrics.Merge(shardMets...); cs.Metrics != want {
			t.Fatalf("merged metrics != merge of shard metrics:\n got %+v\nwant %+v", cs.Metrics, want)
		}
		// Every arrival is notified on exactly one of three counted
		// branches: run by its sender, pended for the CPU's holder, or
		// dropped.
		n := cs.Metrics.Counter(metrics.CtrNotifyDirect) + cs.Metrics.Counter(metrics.CtrNotifies) +
			cs.Metrics.Counter(metrics.CtrNotifyDropped)
		if n < k {
			t.Fatalf("live backend counted %d notify events for %d messages", n, k)
		}
	} else if cs.Metrics != (metrics.Snapshot{}) {
		t.Fatal("backend without a metrics plane reported non-zero metrics")
	}
}

// parkUnpark: a thread parked on message arrival wakes when the message
// lands; a completion that races ahead of the wait is not lost (permit
// semantics up the whole threads/am stack).
func parkUnpark(t *testing.T, f ShardedFactory) {
	r := newRig(f(machine.SP1997(), 2))
	ep1 := r.ep(1)
	var (
		early   threads.SyncVar // written by a message that lands before the read
		late    threads.SyncVar // written by a message the reader must park for
		earlyIn am.Count        // advanced beside early's write
		order   []string
	)
	hEarly := r.register("conf.early", func(th *threads.Thread, _ am.Msg) {
		order = append(order, "early")
		early.Write(th, 1)
		earlyIn.Advance(th, 1)
	})
	hLate := r.register("conf.late", func(th *threads.Thread, _ am.Msg) {
		order = append(order, "late")
		late.Write(th, 2)
	})
	var acked am.Count // node 0 state, advanced by node 0's handler
	hAck := r.register("conf.ack", func(th *threads.Thread, _ am.Msg) {
		acked.Advance(th, 1)
	})
	r.scheds[0].Start("sender", func(th *threads.Thread) {
		ep0 := r.ep(0)
		ep0.Request(th, 1, hEarly, [4]uint64{}, nil, false)
		// Wait for node 1's ack (its main thread is provably past the
		// non-parking read) before sending the message it must park for.
		ep0.Await(th, &acked, 1)
		ep0.Request(th, 1, hLate, [4]uint64{}, nil, false)
	})
	var got1, got2 int
	r.scheds[1].Start("main", func(th *threads.Thread) {
		// Service the network until "early" has landed, so the first Read
		// exercises the permit path (value already written).
		ep1.Await(th, &earlyIn, 1)
		got1 = early.Read(th).(int)
		ep1.Request(th, 0, hAck, [4]uint64{}, nil, false)
		// This Read parks: the poller below services the arrival and the
		// handler's Write unparks us.
		got2 = late.Read(th).(int)
		ep1.Stop()
	})
	r.scheds[1].Start("poller", func(th *threads.Thread) {
		for {
			ep1.PollAll(th)
			if ep1.Stopped() {
				ep1.PollAll(th)
				return
			}
			ep1.WaitMessage(th)
		}
	})
	if err := r.run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got1 != 1 || got2 != 2 {
		t.Fatalf("read %d,%d want 1,2", got1, got2)
	}
	if len(order) != 2 || order[0] != "early" || order[1] != "late" {
		t.Fatalf("event order %v, want [early late]", order)
	}
}
