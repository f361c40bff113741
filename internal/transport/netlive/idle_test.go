//go:build unix

package netlive

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/am"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/threads"
	"repro/internal/transport/live"
)

// Who consumes a ring, and when: the tests below run two co-resident shards
// of one node each over real mapped rings and read the answer off the
// counters — frames drained by idle procs against frames drained by the
// reader, doorbells rung, idle parks that ended while polling against those
// that fell through to the condition variable.

// runBoth runs the two shards' machines concurrently.
func runBoth(t *testing.T, a, b interface{ Run() error }) {
	t.Helper()
	var wg sync.WaitGroup
	var errA, errB error
	wg.Add(2)
	go func() { defer wg.Done(); errA = a.Run() }()
	go func() { defer wg.Done(); errB = b.Run() }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("Run: shard0=%v shard1=%v", errA, errB)
	}
}

// TestIdleProcReceives: a blocking null RMI in ping-pong between two shards.
// Each side's waiting thread — the caller on node 0, the polling thread on
// node 1 — leaves its node idle when it parks, so it polls the ring itself and
// receives its own packet: the procs drain all but a few of the frames, the
// readers next to none, nobody parks long enough for a doorbell, and the
// caller handles its own reply, so node 0 never switches threads.
func TestIdleProcReceives(t *testing.T) {
	const k = 2000
	dir := t.TempDir()
	var bes [2]*Backend
	var rts [2]*core.Runtime
	for s := range bes {
		s := s
		be, err := New(2, Options{NodesPerShard: 1, Shard: &s, Dir: dir,
			Live: live.Options{Watchdog: 20 * time.Second}})
		if err != nil {
			t.Fatalf("New shard %d: %v", s, err)
		}
		bes[s] = be
		rt := core.NewRuntime(machine.NewWithBackend(machine.SP1997(), 2, be))
		rt.RegisterClass(&core.Class{Name: "null", New: func() any { return new(int) },
			Methods: []*core.Method{{Name: "nop", Fn: func(*threads.Thread, any, []core.Arg, core.Arg) {}}}})
		gp := rt.CreateObject(1, "null")
		rt.OnNode(0, func(th *threads.Thread) {
			for i := 0; i < k; i++ {
				rt.Call(th, gp, "nop", nil, nil)
			}
		})
		rts[s] = rt
	}
	if !bes[0].ShmActive() || !bes[1].ShmActive() {
		t.Fatal("shm not active")
	}
	runBoth(t, rts[0], rts[1])

	for s, be := range bes {
		ctr := be.MetricsSnapshot().Counter
		proc, reader := ctr(metrics.CtrShmFramesInProc), ctr(metrics.CtrShmFramesInReader)
		in := proc + reader
		if in < k {
			t.Errorf("shard %d: ring frames in = %d (proc %d + reader %d), want >= %d", s, in, proc, reader, k)
		}
		if reader > k/20 {
			t.Errorf("shard %d: the reader drained %d of %d frames, want next to none: idle procs are not receiving", s, reader, in)
		}
		polls, parks := ctr(metrics.CtrIdlePolls), ctr(metrics.CtrIdleParks)
		if polls < k*9/10 || parks > k/20 {
			t.Errorf("shard %d: live.idle.polls = %d, live.idle.parks = %d over %d round trips: idle parks should end while polling", s, polls, parks, k)
		}
		// A doorbell is rung only at a reader that parked, which takes a proc
		// that polled out its spin share first (the OS descheduled the peer
		// mid-exchange): about one per such park, not one per frame.
		if d := bes[1-s].MetricsSnapshot().Counter(metrics.CtrShmDoorbells); d > parks+2 {
			t.Errorf("shard %d was rung %d doorbells in a ping-pong with %d idle parks that outlasted their polling", s, d, parks)
		}
	}
	// One switch hands the CPU from the polling thread to the program at the
	// start; k calls add none. The exceptions are the few replies that do not
	// reach their caller while it polls — it had given up and blocked, or was
	// still running when the reader landed the frame — which can go to the
	// polling thread instead: a switch to it and one back.
	ctr := bes[0].MetricsSnapshot().Counter
	missed := ctr(metrics.CtrIdleParks) + ctr(metrics.CtrNotifies)
	if sw := rts[0].Machine().Node(0).Acct.Counter(machine.CntContextSwitch); sw > 4+2*missed {
		t.Errorf("node 0 switched threads %d times over %d blocking RMIs, %d of them with a reply that missed its polling caller: want none per RMI", sw, k, missed)
	}
}

// TestReaderBackstop: the destination node computes and polls its inbox but
// never parks, so no proc of its shard is ever idle. Every frame must still
// arrive — through the reader, which with a consumer always awake needs no
// doorbell to speak of.
func TestReaderBackstop(t *testing.T) {
	const k = 500
	dir := t.TempDir()
	a := newShardRig(t, 2, 1, 0, dir)
	b := newShardRig(t, 2, 1, 1, dir)
	got := 0
	h := b.net.Register("b.msg", func(*threads.Thread, am.Msg) { got++ })
	_ = a.net.Register("b.msg", func(*threads.Thread, am.Msg) {})
	a.scheds[0].Start("sender", func(th *threads.Thread) {
		for i := 0; i < k; i++ {
			a.net.Endpoint(0).Request(th, 1, h, [4]uint64{uint64(i)}, nil, false)
		}
	})
	b.scheds[1].Start("busy", func(th *threads.Thread) {
		for got < k {
			th.Compute(time.Microsecond) // a charge: the delivery window, not a park
			b.net.Endpoint(1).Poll(th)
			runtime.Gosched()
		}
	})
	runBoth(t, a.m, b.m)

	ctr := b.be.MetricsSnapshot().Counter
	if got != k || ctr(metrics.CtrShmFramesInReader) != k || ctr(metrics.CtrShmFramesInProc) != 0 {
		t.Fatalf("handled %d of %d; drained by the reader %d, by procs %d: want all %d through the reader",
			got, k, ctr(metrics.CtrShmFramesInReader), ctr(metrics.CtrShmFramesInProc), k)
	}
	if d := a.be.MetricsSnapshot().Counter(metrics.CtrShmDoorbells); d > 3 {
		t.Errorf("%d doorbells for %d frames to a shard whose reader never went short of work", d, k)
	}
	if dropped := ctr(metrics.CtrLinkDropped) + a.be.MetricsSnapshot().Counter(metrics.CtrLinkDropped); dropped != 0 {
		t.Errorf("%d frames dropped", dropped)
	}
}

// TestIdleSpinHandsBack is the lost-wake-up check of the two-consumer
// protocol: the receiving proc polls its share of the spin budget and blocks,
// the reader takes the ring over, spins the rest and parks with the flag set;
// only then is one frame published. It must ring exactly one doorbell, wake
// the reader, and reach the blocked proc.
func TestIdleSpinHandsBack(t *testing.T) {
	dir := t.TempDir()
	a := newShardRig(t, 2, 1, 0, dir)
	b := newShardRig(t, 2, 1, 1, dir)
	var got am.Count
	h := b.net.Register("h.msg", func(th *threads.Thread, _ am.Msg) { got.Advance(th, 1) })
	_ = a.net.Register("h.msg", func(*threads.Thread, am.Msg) {})
	fire := make(chan struct{})
	a.scheds[0].Start("sender", func(th *threads.Thread) {
		<-fire
		a.net.Endpoint(0).Request(th, 1, h, [4]uint64{}, nil, false)
	})
	b.scheds[1].Start("receiver", func(th *threads.Thread) {
		b.net.Endpoint(1).Await(th, &got, 1)
	})
	go func() {
		// The receiver gave up polling (an idle park that fell through to the
		// condition variable) and the reader of its ring has parked.
		rx := b.be.shm.rx[0]
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) &&
			(b.be.NodeMetrics(1).Counter(metrics.CtrIdleParks) == 0 || rx.r.parked.Load() == 0) {
			time.Sleep(time.Millisecond)
		}
		close(fire)
	}()
	runBoth(t, a.m, b.m)

	if got.Value() != 1 {
		t.Fatalf("handled %d frames, want 1", got.Value())
	}
	actr, bctr := a.be.MetricsSnapshot().Counter, b.be.MetricsSnapshot().Counter
	if d, wakes := actr(metrics.CtrShmDoorbells), bctr(metrics.CtrShmParkWakes); d != 1 || wakes != 1 {
		t.Errorf("doorbells = %d, reader park wake-ups = %d, want 1 and 1 (the publish never found the flag set?)", d, wakes)
	}
	if parks, reader := bctr(metrics.CtrIdleParks), bctr(metrics.CtrShmFramesInReader); parks < 1 || reader != 1 {
		t.Errorf("live.idle.parks = %d, frames drained by the reader = %d, want the proc blocked and the frame through the reader", parks, reader)
	}
}

// TestControlPlaneBound holds the socket of a ring link to the bound that
// DESIGN.md states for it ("The control plane's bound"): its frame queue never
// holds more than one doorbell per ring (only the producer that wins the
// parked flag's CAS queues one), one wave frame (one wave is open per worker),
// and the frames a run sends once — on the parent the all-done frame, on a
// worker its stats and the doorbell that opens its link. Node 0 sends bursts of one-way RMIs to node 1
// in the other shard and, between bursts, waits until node 1's ring reader
// has parked, so that each burst rings a doorbell, until 100 have been rung;
// the run then ends by the shards' waves. Neither shard's queue may have held
// more than its bound at any time (net.peer.ring.depth's high-water mark).
func TestControlPlaneBound(t *testing.T) {
	const (
		bells = 100
		burst = 64
	)
	dir := t.TempDir()
	var bes [2]*Backend
	var rts [2]*core.Runtime
	for s := range bes {
		s := s
		be, err := New(2, Options{NodesPerShard: 1, Shard: &s, Dir: dir,
			Live: live.Options{Watchdog: 20 * time.Second}})
		if err != nil {
			t.Fatalf("New shard %d: %v", s, err)
		}
		bes[s] = be
		rt := core.NewRuntime(machine.NewWithBackend(machine.SP1997(), 2, be))
		rt.RegisterClass(&core.Class{Name: "null", New: func() any { return new(int) },
			Methods: []*core.Method{{Name: "nop", Fn: func(*threads.Thread, any, []core.Arg, core.Arg) {}}}})
		gp := rt.CreateObject(1, "null")
		rt.OnNode(0, func(th *threads.Thread) {
			parked := bes[1].shm.rx[0].r.parked // node 1's reader of the ring from node 0
			for bes[0].met.Counter(metrics.CtrShmDoorbells) < bells {
				for i := 0; i < burst; i++ {
					rt.CallOneWay(th, gp, "nop", nil)
				}
				for deadline := time.Now().Add(10 * time.Second); parked.Load() == 0; time.Sleep(50 * time.Microsecond) {
					if time.Now().After(deadline) {
						t.Error("node 1's ring reader did not park within 10s of a burst")
						return
					}
				}
			}
		})
		rts[s] = rt
	}
	runBoth(t, rts[0], rts[1])

	if d := bes[0].met.Counter(metrics.CtrShmDoorbells); d < bells {
		t.Fatalf("%d doorbells rung, want at least %d", d, bells)
	}
	for s, be := range bes {
		bound := int64(3) // a doorbell, a wave probe, the all-done frame
		if s != 0 {
			bound = 4 // a doorbell, a wave answer, the stats, the link-opening doorbell
		}
		snap := be.met.Snapshot()
		depth := snap.Gauge(metrics.GgePeerRingDepth).Max
		if depth > bound {
			t.Errorf("shard %d's socket queue held %d frames, above its bound of %d", s, depth, bound)
		}
		t.Logf("shard %d: socket queue high-water mark %d, %d socket frames out, %d doorbells rung",
			s, depth, snap.Counter(metrics.CtrFramesOut), snap.Counter(metrics.CtrShmDoorbells))
	}
}
