package live

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport"
)

// TestParkUnparkPermit checks gopark/goready semantics at the proc level:
// an Unpark that races ahead of Park is not lost.
func TestParkUnparkPermit(t *testing.T) {
	b := New(1, Options{Watchdog: 5 * time.Second})
	var woke bool
	var child transport.Proc
	child = b.Go(0, "child", func(p transport.Proc) {
		p.Park() // permit may already be pending
		woke = true
	})
	b.Go(0, "parent", func(p transport.Proc) {
		child.Unpark() // same-node context: holds the node CPU
	})
	if err := b.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !woke {
		t.Fatal("child never woke")
	}
}

// TestDeliverEnqueueThenNotify checks DeliverDirect's contract as the machine
// layer uses it: the sender enqueues, then every notify runs exactly once, in
// node 1's context (it can unpark), after its own enqueue. Notify order is not
// part of the contract: a notify pended behind a busy CPU may run after a
// later one that found the CPU free.
func TestDeliverEnqueueThenNotify(t *testing.T) {
	const k = 500
	b := New(2, Options{Watchdog: 5 * time.Second})
	var enqueued atomic.Int64 // sends whose enqueue step has run
	notified := make([]int, k)
	var total int
	early := -1
	var rx transport.Proc
	rx = b.Go(1, "rx", func(p transport.Proc) {
		for total < k {
			p.Park()
		}
	})
	b.Go(0, "tx", func(p transport.Proc) {
		for i := 0; i < k; i++ {
			i := i
			enqueued.Store(int64(i + 1))
			b.DeliverDirect(1, func() { // node 1's context
				if enqueued.Load() <= int64(i) {
					early = i
				}
				notified[i]++
				total++
				rx.Unpark()
			})
		}
	})
	if err := b.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if early >= 0 {
		t.Fatalf("notify %d ran before its enqueue", early)
	}
	for i, n := range notified {
		if n != 1 {
			t.Fatalf("notify %d ran %d times, want exactly once", i, n)
		}
	}
}

// waitParked returns once p is parked. The caller may hold its own node's
// CPU, never p's.
func waitParked(p *Proc) {
	for {
		p.nd.mu.Lock()
		parked := p.parked
		p.nd.release()
		if parked {
			return
		}
		runtime.Gosched()
	}
}

// TestDirectNotifyWhenParked: with the receiver parked its CPU is free, so
// every send's notify runs on the sender and none reaches the pending list.
func TestDirectNotifyWhenParked(t *testing.T) {
	const n = 200
	b := New(2, Options{Watchdog: 5 * time.Second})
	var got int
	var rx *Proc
	notify := func() { // node 1's context
		if got++; got == n {
			rx.Unpark()
		}
	}
	rx = b.Go(1, "rx", func(p transport.Proc) { p.Park() }).(*Proc)
	b.Go(0, "tx", func(p transport.Proc) {
		waitParked(rx)
		for i := 0; i < n; i++ {
			b.DeliverDirect(1, notify)
		}
	})
	if err := b.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	met := b.NodeMetrics(1).Snapshot()
	if d, q := met.Counter(metrics.CtrNotifyDirect), met.Counter(metrics.CtrNotifies); d != n || q != 0 {
		t.Fatalf("direct=%d queued=%d, want %d and 0", d, q, n)
	}
	if got != n {
		t.Fatalf("notify ran %d times, want %d", got, n)
	}
}

// TestSleepRunsPendingTimer: a proc that only charges, never parks, still lets
// a delivered callback in — what a timer's callback used to be. Node 1's proc
// delivers it while node 0's spins, so it finds the CPU busy and pends; the
// spinning proc's next Sleep must run it.
func TestSleepRunsPendingTimer(t *testing.T) {
	b := New(2, Options{Watchdog: 10 * time.Second})
	fired := false // node 0 state
	var spinning atomic.Bool
	var seen time.Duration
	b.Go(0, "spin", func(p transport.Proc) {
		spinning.Store(true)
		start := time.Now()
		for !fired && time.Since(start) < 5*time.Second {
			p.Sleep(1)
		}
		seen = time.Since(start)
	})
	b.Go(1, "deliver", func(p transport.Proc) {
		for !spinning.Load() {
			time.Sleep(time.Millisecond)
		}
		b.DeliverDirect(0, func() { fired = true })
	})
	if err := b.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Fatal("a delivered callback never got the CPU from a proc that only Sleeps")
	}
	if seen > 50*time.Millisecond {
		t.Fatalf("callback seen after %v, want within 50ms", seen)
	}
}

// TestCrossBlastNoStall: two nodes blast each other, each holding its own CPU
// while it TryLocks the other's. A sender never waits for a CPU, so neither
// can wedge the other, and every notify still runs: on the sender when the
// TryLock wins, on the busy peer once it parks.
func TestCrossBlastNoStall(t *testing.T) {
	const k = 2000
	b := New(2, Options{Watchdog: 10 * time.Second})
	var got [2]int // got[i] is node i state
	var procs [2]transport.Proc
	var notify [2]func()
	for i := range procs {
		i := i
		notify[i] = func() {
			got[i]++
			procs[i].Unpark()
		}
		procs[i] = b.Go(i, "blaster", func(p transport.Proc) {
			for j := 0; j < k; j++ {
				b.DeliverDirect(1-i, notify[1-i])
			}
			for got[i] < k {
				p.Park()
			}
		})
	}
	if err := b.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, n := range got {
		if n != k {
			t.Fatalf("node %d saw %d notifies, want %d", i, n, k)
		}
	}
	var accounted int64
	for i := range procs {
		met := b.NodeMetrics(i).Snapshot()
		accounted += met.Counter(metrics.CtrNotifyDirect) + met.Counter(metrics.CtrNotifies)
		if d := met.Counter(metrics.CtrNotifyDropped); d != 0 {
			t.Fatalf("node %d dropped %d notifies during the run", i, d)
		}
	}
	if accounted != 2*k {
		t.Fatalf("direct+queued = %d, want %d", accounted, 2*k)
	}
}

// TestWatchdogReportsStall checks that a parked-forever proc produces a
// StallError naming it instead of a hang.
func TestWatchdogReportsStall(t *testing.T) {
	b := New(1, Options{Watchdog: 100 * time.Millisecond})
	b.Go(0, "stuck", func(p transport.Proc) { p.Park() })
	err := b.Run()
	se, ok := err.(*StallError)
	if !ok {
		t.Fatalf("Run returned %v, want *StallError", err)
	}
	if len(se.Procs) != 1 || se.Procs[0] != "stuck" {
		t.Fatalf("stall report %v, want [stuck]", se.Procs)
	}
}

// TestLateNotifyDropped: once Run has returned, a callback that finds its
// node's CPU busy is dropped and counted rather than pended for a holder that
// may never let go. The holder here outlives the watchdog.
func TestLateNotifyDropped(t *testing.T) {
	b := New(1, Options{Watchdog: 50 * time.Millisecond})
	let := make(chan struct{})
	b.Go(0, "holder", func(p transport.Proc) { <-let })
	if _, ok := b.Run().(*StallError); !ok {
		t.Fatal("Run did not report the holder stalled")
	}
	b.DeliverDirect(0, func() { t.Error("a callback ran after the run was over") })
	close(let)
	if d := b.NodeMetrics(0).Snapshot().Counter(metrics.CtrNotifyDropped); d != 1 {
		t.Fatalf("live.notify.dropped = %d, want 1", d)
	}
}

// TestNewStartsNoGoroutine: the backend owns no goroutine but its procs — no
// receiver thread per node.
func TestNewStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	New(8, Options{})
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("New(8) took the process from %d to %d goroutines, want none started", before, after)
	}
}

// TestStalledRunLeavesOnlyStuckProcs: a run that stalls forever pins nothing
// of the backend's: the moment Run returns, only the stuck proc and Run's wg
// waiter, which lives as long as the stuck proc does, remain.
func TestStalledRunLeavesOnlyStuckProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	b := New(8, Options{Watchdog: 50 * time.Millisecond})
	b.Go(0, "stuck", func(p transport.Proc) { p.Park() }) // parked forever
	if _, ok := b.Run().(*StallError); !ok {
		t.Fatal("expected StallError")
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutines before=%d after the stalled run=%d, want at most 2 more", before, g)
	}
}

// TestProcExitRunsPending: proc exit is a release point. A proc that holds
// the CPU when a notify arrives from outside the node, and then exits without
// a charge or a park, has run the notify by the time Run returns.
func TestProcExitRunsPending(t *testing.T) {
	b := New(1, Options{Watchdog: 5 * time.Second})
	ran := false // node 0 state
	b.Go(0, "holder", func(p transport.Proc) {
		sent := make(chan struct{})
		go func() {
			b.DeliverDirect(0, func() { ran = true })
			close(sent)
		}()
		<-sent // the CPU is held throughout: the notify can only pend
	})
	if err := b.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Fatal("a notify pended on a proc that exited never ran")
	}
	if met := b.NodeMetrics(0).Snapshot(); met.Counter(metrics.CtrNotifies) != 1 || met.Counter(metrics.CtrNotifyDirect) != 0 {
		t.Fatalf("pended=%d direct=%d, want 1 and 0", met.Counter(metrics.CtrNotifies), met.Counter(metrics.CtrNotifyDirect))
	}
}

// TestReleaseLooksAgain: a callback the holder runs off the pending list can
// itself deliver to the node (a handler sending to its own node). That notify
// pends behind the list the holder is running, and only release's look after
// the unlock picks it up.
func TestReleaseLooksAgain(t *testing.T) {
	b := New(1, Options{Watchdog: 5 * time.Second})
	ran := false // node 0 state
	b.Go(0, "holder", func(p transport.Proc) {
		sent := make(chan struct{})
		go func() {
			b.DeliverDirect(0, func() { b.DeliverDirect(0, func() { ran = true }) })
			close(sent)
		}()
		<-sent
	})
	if err := b.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Fatal("a notify pended while the holder ran its pending list was stranded")
	}
}

// TestNotifyExactlyOnceHammer: every notify runs exactly once whatever the
// receiver is doing. m plain goroutines deliver at one node in k rounds; its
// proc alternates charges and parks until it has counted a round's m, then
// opens the next. The last notify of a round finds the proc anywhere between
// its final look at the pending list and blocking, k times over: a strand
// there (the sender's second TryLock or release's re-check missing) parks the
// proc for good and the watchdog reports it.
func TestNotifyExactlyOnceHammer(t *testing.T) {
	for _, m := range []int{1, 4} {
		hammer(t, m, 2000/m)
	}
}

func hammer(t *testing.T, m, k int) {
	b := New(1, Options{Watchdog: 20 * time.Second})
	var got int // node 0 state
	var round atomic.Int64
	var rx transport.Proc
	notify := func() {
		got++
		rx.Unpark()
	}
	rx = b.Go(0, "rx", func(p transport.Proc) {
		for r := 1; r <= k; r++ {
			for i := 0; got < r*m; i++ {
				if i%2 == 0 {
					p.Sleep(1)
				} else {
					p.Park()
				}
			}
			round.Store(int64(r))
		}
	})
	var senders sync.WaitGroup
	for j := 0; j < m; j++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for r := 0; r < k; r++ {
				b.DeliverDirect(0, notify)
				for round.Load() <= int64(r) && !b.over.Load() {
					runtime.Gosched()
				}
			}
		}()
	}
	err := b.Run()
	senders.Wait()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	met := b.NodeMetrics(0).Snapshot()
	direct, pended, dropped := met.Counter(metrics.CtrNotifyDirect), met.Counter(metrics.CtrNotifies), met.Counter(metrics.CtrNotifyDropped)
	if got != m*k || direct+pended != int64(m*k) || dropped != 0 {
		t.Fatalf("ran %d notifies, direct=%d + pended=%d, dropped=%d; want %d run and accounted, 0 dropped", got, direct, pended, dropped, m*k)
	}
}

// TestAfterZeroFromOwnNodeIsNotReentrant: a callback that a node's own proc
// delivers to its node does not run inside DeliverDirect (the proc holds the
// CPU and fn may touch what the proc is in the middle of) but at the proc's
// next charge.
func TestAfterZeroFromOwnNodeIsNotReentrant(t *testing.T) {
	b := New(1, Options{Watchdog: 5 * time.Second})
	ran := false // node 0 state
	var inDeliver, atCharge bool
	b.Go(0, "p", func(p transport.Proc) {
		b.DeliverDirect(0, func() { ran = true })
		inDeliver = ran
		p.Sleep(1)
		atCharge = ran
	})
	if err := b.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if inDeliver || !atCharge {
		t.Fatalf("fn had run inside DeliverDirect: %v, by the next charge: %v; want false, true", inDeliver, atCharge)
	}
}

// TestNotifyDepthGaugeFallsBack: the pending-depth gauge is sampled when the
// list is run as well as when it is pushed, so a quiesced node reads 0, not
// its last push's depth, and a merged snapshot never shows last above max.
func TestNotifyDepthGaugeFallsBack(t *testing.T) {
	const k = 50
	b := New(2, Options{Watchdog: 5 * time.Second})
	var got int // node 1 state
	notify := func() { got++ }
	busy, sent := make(chan struct{}), make(chan struct{})
	b.Go(0, "tx", func(p transport.Proc) {
		<-busy
		for i := 0; i < k; i++ {
			b.DeliverDirect(1, notify)
		}
		close(sent)
	})
	b.Go(1, "busy", func(p transport.Proc) {
		close(busy) // holds its CPU from here on: every notify pends
		<-sent
		p.Sleep(1)
	})
	if err := b.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if g := b.NodeMetrics(1).Snapshot().Gauge(metrics.GgeNotifyDepth); got != k || g.Last != 0 || g.Max != k {
		t.Fatalf("ran %d of %d pended notifies, depth gauge last=%d max=%d; want last 0, max %d", got, k, g.Last, g.Max, k)
	}
	if g := b.MetricsSnapshot().Gauge(metrics.GgeNotifyDepth); g.Last > g.Max {
		t.Fatalf("merged depth gauge last=%d above max=%d", g.Last, g.Max)
	}
}

// TestClockAdvances checks that Now is wall-clock during a run.
func TestClockAdvances(t *testing.T) {
	b := New(1, Options{Watchdog: 5 * time.Second})
	var before, after time.Duration
	b.Go(0, "clock", func(p transport.Proc) {
		before = p.Now()
		time.Sleep(2 * time.Millisecond)
		after = p.Now()
	})
	if err := b.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if after-before < time.Millisecond {
		t.Fatalf("clock advanced %v across a 2ms sleep", after-before)
	}
}

// TestIdlePollReceivesOnOwnGoroutine pins the idle poll (SetIdlePoll) at the
// proc level. A proc that hands the CPU to a sibling and parks does not poll:
// the node is busy. A proc that parks with no sibling to run does, with the
// CPU released — so a delivery made from inside the poll finds the CPU free,
// runs the notify on the polling goroutine, and woken reports the permit:
// the proc received its own wake-up without blocking.
func TestIdlePollReceivesOnOwnGoroutine(t *testing.T) {
	b := New(1, Options{Watchdog: 5 * time.Second})
	var c transport.Proc
	var polls int
	var before, after bool
	b.SetIdlePoll(func(woken func() bool) {
		polls++
		before = woken()
		b.DeliverDirect(0, func() { c.Unpark() })
		after = woken()
	})
	b.Go(0, "a", func(a transport.Proc) {
		c = b.Go(0, "c", func(p transport.Proc) {
			p.Park() // first dispatch: a's permit is already here
			a.Unpark()
			p.Park() // hands the CPU back to a: no poll
			p.Park() // a is gone, nothing is runnable: the node idles
		})
		c.Unpark()
		a.Park() // handed the CPU to c: no poll
		c.Unpark()
	})
	if err := b.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if polls != 1 || before || !after {
		t.Fatalf("polls = %d, woken before/after the delivery = %v/%v; want one poll, by the proc that left the node idle, woken by its own delivery",
			polls, before, after)
	}
	snap := b.MetricsSnapshot()
	if d, got, blocked := snap.Counter(metrics.CtrNotifyDirect), snap.Counter(metrics.CtrIdlePolls), snap.Counter(metrics.CtrIdleParks); d != 1 || got != 1 || blocked != 0 {
		t.Fatalf("direct notifies = %d, live.idle.polls = %d, live.idle.parks = %d, want 1, 1, 0", d, got, blocked)
	}
}

// TestIdlePollGivesUp: a poll that returns empty-handed leaves the proc
// blocked on its condition variable exactly as without a poll, and a later
// delivery from another goroutine wakes it.
func TestIdlePollGivesUp(t *testing.T) {
	b := New(1, Options{Watchdog: 5 * time.Second})
	gaveUp := make(chan struct{})
	b.SetIdlePoll(func(func() bool) { close(gaveUp) })
	var p0 transport.Proc
	p0 = b.Go(0, "p", func(p transport.Proc) { p.Park() })
	go func() {
		<-gaveUp
		b.DeliverDirect(0, func() { p0.Unpark() })
	}()
	if err := b.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Blocked, unless the delivery slipped in before the proc had re-taken its
	// CPU after the poll; either way the one idle park is counted once.
	if snap := b.MetricsSnapshot(); snap.Counter(metrics.CtrIdlePolls)+snap.Counter(metrics.CtrIdleParks) != 1 {
		t.Fatalf("live.idle.polls = %d, live.idle.parks = %d, want one idle park in all",
			snap.Counter(metrics.CtrIdlePolls), snap.Counter(metrics.CtrIdleParks))
	}
}
