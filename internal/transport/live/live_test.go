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
// layer uses it: the sender enqueues, then notifies, and the arrival function
// runs in node 1's context (it can unpark) at least once after each enqueue:
// the enqueues an arrival reads never fall behind, and every notify is
// counted once, as run on its sender or pended for the holder.
func TestDeliverEnqueueThenNotify(t *testing.T) {
	const k = 500
	b := New(2, Options{Watchdog: 5 * time.Second})
	var enqueued atomic.Int64 // sends whose enqueue step has run
	var seen, runs int64      // node 1 state
	var rx transport.Proc
	b.SetArrival(func(node int, _ bool) {
		if node != 1 {
			t.Errorf("arrival for node %d, want 1", node)
		}
		runs++
		seen = enqueued.Load()
		rx.Unpark()
	})
	rx = b.Go(1, "rx", func(p transport.Proc) {
		for seen < k {
			p.Park()
		}
	})
	b.Go(0, "tx", func(p transport.Proc) {
		for i := 0; i < k; i++ {
			enqueued.Add(1)
			b.DeliverDirect(1, false)
		}
	})
	if err := b.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	met := b.NodeMetrics(1).Snapshot()
	direct, pended, batches := met.Counter(metrics.CtrNotifyDirect), met.Counter(metrics.CtrNotifies), met.Counter(metrics.CtrNotifyBatches)
	if direct+pended != k || runs != direct+batches {
		t.Fatalf("direct=%d pended=%d batches=%d, %d runs; want %d notifies accounted and one run per direct notify or batch", direct, pended, batches, runs, k)
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
// every send's arrival runs on the sender and none pends.
func TestDirectNotifyWhenParked(t *testing.T) {
	const n = 200
	b := New(2, Options{Watchdog: 5 * time.Second})
	var got int
	var rx *Proc
	b.SetArrival(func(int, bool) { // node 1's context
		if got++; got == n {
			rx.Unpark()
		}
	})
	rx = b.Go(1, "rx", func(p transport.Proc) { p.Park() }).(*Proc)
	b.Go(0, "tx", func(p transport.Proc) {
		waitParked(rx)
		for i := 0; i < n; i++ {
			b.DeliverDirect(1, false)
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
		t.Fatalf("arrival ran %d times, want %d", got, n)
	}
}

// TestSleepRunsPendingTimer: a proc that only charges, never parks, still
// lets an arrival in — what a timer's callback used to be. Node 1's proc notifies node 0 while node 0's spins, so
// the notify finds the CPU busy and pends; the spinning proc's next Sleep must
// run the arrival.
func TestSleepRunsPendingTimer(t *testing.T) {
	b := New(2, Options{Watchdog: 10 * time.Second})
	fired := false // node 0 state
	b.SetArrival(func(int, bool) { fired = true })
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
		b.DeliverDirect(0, false)
	})
	if err := b.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Fatal("a pended arrival never got the CPU from a proc that only Sleeps")
	}
	if seen > 50*time.Millisecond {
		t.Fatalf("arrival seen after %v, want within 50ms", seen)
	}
}

// TestCrossBlastNoStall: two nodes blast each other, each holding its own CPU
// while it TryLocks the other's. A sender never waits for a CPU, so neither
// can wedge the other, and every enqueue is still seen by an arrival: on the
// sender when the TryLock wins, on the busy peer once it parks.
func TestCrossBlastNoStall(t *testing.T) {
	const k = 2000
	b := New(2, Options{Watchdog: 10 * time.Second})
	var sent [2]atomic.Int64 // sent[i]: enqueues for node i
	var seen [2]int64        // seen[i] is node i state
	var procs [2]transport.Proc
	b.SetArrival(func(i int, _ bool) {
		if seen[i] >= k {
			// An earlier arrival read the last enqueue before its notify ran:
			// the proc has been let go and may have exited since.
			return
		}
		seen[i] = sent[i].Load()
		procs[i].Unpark()
	})
	for i := range procs {
		i := i
		procs[i] = b.Go(i, "blaster", func(p transport.Proc) {
			for j := 0; j < k; j++ {
				sent[1-i].Add(1)
				b.DeliverDirect(1-i, false)
			}
			for seen[i] < k {
				p.Park()
			}
		})
	}
	if err := b.Run(); err != nil {
		t.Fatalf("Run: %v", err)
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
		t.Fatalf("direct+pended = %d, want %d", accounted, 2*k)
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

// TestLateNotifyDropped: once Run has returned, a notify that finds its
// node's CPU busy is dropped and counted rather than pended for a holder that
// may never let go. The holder here outlives the watchdog.
func TestLateNotifyDropped(t *testing.T) {
	b := New(1, Options{Watchdog: 50 * time.Millisecond})
	b.SetArrival(func(int, bool) { t.Error("an arrival ran after the run was over") })
	let := make(chan struct{})
	b.Go(0, "holder", func(p transport.Proc) { <-let })
	if _, ok := b.Run().(*StallError); !ok {
		t.Fatal("Run did not report the holder stalled")
	}
	b.DeliverDirect(0, false)
	close(let)
	met := b.NodeMetrics(0).Snapshot()
	if d, p, q := met.Counter(metrics.CtrNotifyDropped), met.Counter(metrics.CtrNotifyDirect), met.Counter(metrics.CtrNotifies); d != 1 || p+q != 0 {
		t.Fatalf("live.notify.dropped = %d, direct = %d, pended = %d; want the one notify counted as dropped only", d, p, q)
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
// a charge or a park, has run the arrival by the time Run returns.
func TestProcExitRunsPending(t *testing.T) {
	b := New(1, Options{Watchdog: 5 * time.Second})
	ran := false // node 0 state
	b.SetArrival(func(int, bool) { ran = true })
	b.Go(0, "holder", func(p transport.Proc) {
		sent := make(chan struct{})
		go func() {
			b.DeliverDirect(0, false)
			close(sent)
		}()
		<-sent // the CPU is held throughout: the notify can only pend
	})
	if err := b.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Fatal("an arrival pended on a proc that exited never ran")
	}
	if met := b.NodeMetrics(0).Snapshot(); met.Counter(metrics.CtrNotifies) != 1 || met.Counter(metrics.CtrNotifyDirect) != 0 {
		t.Fatalf("pended=%d direct=%d, want 1 and 0", met.Counter(metrics.CtrNotifies), met.Counter(metrics.CtrNotifyDirect))
	}
}

// TestReleaseLooksAgain: the arrival function the holder runs can itself
// notify the node (a handler sending to its own node). That notify pends
// behind the arrival the holder is running, and only release's look after
// the unlock picks it up.
func TestReleaseLooksAgain(t *testing.T) {
	b := New(1, Options{Watchdog: 5 * time.Second})
	runs := 0 // node 0 state
	b.SetArrival(func(int, bool) {
		if runs++; runs == 1 {
			b.DeliverDirect(0, false)
		}
	})
	b.Go(0, "holder", func(p transport.Proc) {
		sent := make(chan struct{})
		go func() {
			b.DeliverDirect(0, false)
			close(sent)
		}()
		<-sent
	})
	if err := b.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if runs != 2 {
		t.Fatalf("the arrival ran %d times, want 2: a notify pended while the holder ran the arrival was stranded", runs)
	}
}

// TestNotifyNeverStrandedHammer: an enqueue is always followed by an
// arrival that sees it, whatever else holds the node. m plain goroutines each
// enqueue and notify one node once a round, for k rounds. The arrival reads
// the enqueues, is preempted (as a holder on a busy host is), and then, if it
// read a round's last one, opens the next round and wakes the node's proc,
// which alternates charges and parks meanwhile. Notifies land on a holder in
// the middle of an arrival, k times over: one stranded there (release's look
// after the unlock or the sender's second TryLock missing) leaves a round
// unopened and the proc parked for good, and the watchdog reports it. Every
// notify is counted once, as direct, pended or dropped, and the batches take
// exactly the pended ones.
func TestNotifyNeverStrandedHammer(t *testing.T) {
	for _, m := range []int{1, 4} {
		hammer(t, m, 2000/m)
	}
}

func hammer(t *testing.T, m, k int) {
	b := New(1, Options{Watchdog: 5 * time.Second})
	var enqueued, opened atomic.Int64
	done := false // node 0 state
	var rx transport.Proc
	b.SetArrival(func(int, bool) {
		if done { // rx was woken for the last round and may have exited
			return
		}
		e := enqueued.Load()
		runtime.Gosched() // preempted holding the CPU: notifies land behind it
		if e != opened.Load()*int64(m) {
			return
		}
		if e == int64(m*k) {
			done = true
		} else {
			opened.Add(1)
		}
		rx.Unpark()
	})
	opened.Store(1)
	rx = b.Go(0, "rx", func(p transport.Proc) {
		for i := 0; !done; i++ {
			if i%2 == 0 {
				p.Sleep(1)
			} else {
				p.Park()
			}
		}
	})
	var senders sync.WaitGroup
	for j := 0; j < m; j++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for r := 0; r < k; r++ {
				for opened.Load() <= int64(r) && !b.over.Load() {
					runtime.Gosched()
				}
				for i := 0; i < (r+j)%3; i++ { // senders of a round come staggered
					runtime.Gosched()
				}
				enqueued.Add(1)
				b.DeliverDirect(0, false)
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
	if direct+pended != int64(m*k) || dropped != 0 {
		t.Fatalf("direct=%d + pended=%d, dropped=%d; want %d accounted, 0 dropped", direct, pended, dropped, m*k)
	}
	if h := met.Hist(metrics.HstPollBatch); h.Count != met.Counter(metrics.CtrNotifyBatches) || h.Sum != pended {
		t.Fatalf("%d batches took %d notifies (%d counted), want the %d pended", h.Count, h.Sum, met.Counter(metrics.CtrNotifyBatches), pended)
	}
}

// TestAfterZeroFromOwnNodeIsNotReentrant: a notify a node's own proc makes to its
// node does not run the arrival inside DeliverDirect (the proc holds the CPU
// and the arrival may touch what the proc is in the middle of) but at the
// proc's next charge.
func TestAfterZeroFromOwnNodeIsNotReentrant(t *testing.T) {
	b := New(1, Options{Watchdog: 5 * time.Second})
	ran := false // node 0 state
	b.SetArrival(func(int, bool) { ran = true })
	var inDeliver, atCharge bool
	b.Go(0, "p", func(p transport.Proc) {
		b.DeliverDirect(0, false)
		inDeliver = ran
		p.Sleep(1)
		atCharge = ran
	})
	if err := b.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if inDeliver || !atCharge {
		t.Fatalf("the arrival had run inside DeliverDirect: %v, by the next charge: %v; want false, true", inDeliver, atCharge)
	}
}

// TestLocalOnlyOnTheSender: the arrival function learns that a notify is a
// local send only when it runs on that sender, which found the CPU free; a
// notify that pends runs on the CPU's holder as a plain one.
func TestLocalOnlyOnTheSender(t *testing.T) {
	b := New(2, Options{Watchdog: 5 * time.Second})
	var seen [2][2]atomic.Int32 // [node][local]
	var done atomic.Bool
	var rx transport.Proc
	b.SetArrival(func(node int, local bool) {
		l := 0
		if local {
			l = 1
		}
		seen[node][l].Add(1)
		if node == 1 && done.Load() {
			rx.Unpark()
		}
	})
	rx = b.Go(1, "rx", func(p transport.Proc) { p.Park() })
	b.Go(0, "tx", func(p transport.Proc) {
		// Until rx has parked its node is busy and the notify pends on it.
		for start := time.Now(); seen[1][1].Load() == 0 && time.Since(start) < 4*time.Second; {
			b.DeliverDirect(1, true)
			time.Sleep(time.Millisecond)
		}
		b.DeliverDirect(0, true) // its own CPU is held: this one pends
		p.Sleep(1)
		done.Store(true)
		b.DeliverDirect(1, false)
	})
	if err := b.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if seen[1][1].Load() == 0 {
		t.Error("a local notify that found node 1 idle never reached the arrival as local")
	}
	if l, p := seen[0][1].Load(), seen[0][0].Load(); l != 0 || p != 1 {
		t.Errorf("a local notify that pended on its sender's own CPU ran %d times as local and %d as plain, want 0 and 1", l, p)
	}
}

// TestPendedNotifiesRunOnceDepthMax: k notifies that find the CPU busy are
// one run of the arrival, and the depth gauge's max is the deepest the
// pending count got.
func TestPendedNotifiesRunOnceDepthMax(t *testing.T) {
	const k = 50
	b := New(2, Options{Watchdog: 5 * time.Second})
	var runs int // node 1 state
	b.SetArrival(func(int, bool) { runs++ })
	busy, sent := make(chan struct{}), make(chan struct{})
	b.Go(0, "tx", func(p transport.Proc) {
		<-busy
		for i := 0; i < k; i++ {
			b.DeliverDirect(1, false)
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
	met := b.NodeMetrics(1).Snapshot()
	if g := met.Gauge(metrics.GgeNotifyDepth); runs != 1 || g.Max != k {
		t.Fatalf("%d pended notifies ran the arrival %d times, depth gauge max=%d; want 1 run, max %d", k, runs, g.Max, k)
	}
	if h := met.Hist(metrics.HstPollBatch); met.Counter(metrics.CtrNotifies) != k || h.Count != 1 || h.Max != k {
		t.Fatalf("live.notifies = %d, live.poll.batch count %d max %d; want %d, 1, %d", met.Counter(metrics.CtrNotifies), h.Count, h.Max, k, k)
	}
}

// TestClockAdvances checks that Now is wall-clock during a run.
func TestClockAdvances(t *testing.T) {
	b := New(1, Options{Watchdog: 5 * time.Second})
	var before, after time.Duration
	b.Go(0, "clock", func(transport.Proc) {
		before = b.Now()
		time.Sleep(2 * time.Millisecond)
		after = b.Now()
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
// runs the arrival on the polling goroutine, and woken reports the permit:
// the proc received its own wake-up without blocking.
func TestIdlePollReceivesOnOwnGoroutine(t *testing.T) {
	b := New(1, Options{Watchdog: 5 * time.Second})
	var c transport.Proc
	var polls int
	var before, after bool
	b.SetArrival(func(int, bool) { c.Unpark() })
	b.SetIdlePoll(func(woken func() bool) {
		polls++
		before = woken()
		b.DeliverDirect(0, false)
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
	b.SetArrival(func(int, bool) { p0.Unpark() })
	p0 = b.Go(0, "p", func(p transport.Proc) { p.Park() })
	go func() {
		<-gaveUp
		b.DeliverDirect(0, false)
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
