package threads

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
)

// testRig builds a 1-node machine with round-number costs so expectations
// are easy to compute by hand.
func testRig() (*machine.Machine, *Scheduler) {
	cfg := machine.Config{
		Name:          "test",
		ThreadCreate:  5 * time.Microsecond,
		ContextSwitch: 6 * time.Microsecond,
		SyncOp:        400 * time.Nanosecond,
		FlopCost:      25 * time.Nanosecond,
	}
	m := machine.New(cfg, 1)
	return m, NewScheduler(m.Node(0))
}

func TestSingleThreadRuns(t *testing.T) {
	m, s := testRig()
	ran := false
	s.Start("main", func(th *Thread) {
		th.Compute(10 * time.Microsecond)
		ran = true
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("thread never ran")
	}
	if got := m.Node(0).Acct.Get(machine.CatCPU); got != 10*time.Microsecond {
		t.Fatalf("cpu bucket %v", got)
	}
	if m.Eng.Now() != 10*time.Microsecond {
		t.Fatalf("virtual time %v", m.Eng.Now())
	}
}

func TestSpawnChargesCreate(t *testing.T) {
	m, s := testRig()
	childRan := false
	s.Start("main", func(th *Thread) {
		th.Spawn("child", func(c *Thread) { childRan = true })
		th.Yield() // switch to the child
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child never ran")
	}
	acct := m.Node(0).Acct
	if n := acct.Counter(machine.CntThreadCreate); n != 1 {
		t.Fatalf("creates = %d", n)
	}
	if n := acct.Counter(machine.CntContextSwitch); n != 1 {
		t.Fatalf("switches = %d, want 1", n)
	}
	if got := acct.Get(machine.CatThreadMgmt); got != 5*time.Microsecond+6*time.Microsecond {
		t.Fatalf("thread-mgmt bucket %v", got)
	}
}

func TestYieldNoOtherThreadIsFree(t *testing.T) {
	m, s := testRig()
	s.Start("main", func(th *Thread) {
		th.Yield()
		th.Yield()
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if n := m.Node(0).Acct.Counter(machine.CntContextSwitch); n != 0 {
		t.Fatalf("lone yield charged %d switches", n)
	}
	if m.Eng.Now() != 0 {
		t.Fatalf("time advanced to %v", m.Eng.Now())
	}
}

func TestYieldRoundRobin(t *testing.T) {
	m, s := testRig()
	var order []string
	s.Start("a", func(th *Thread) {
		for i := 0; i < 3; i++ {
			order = append(order, "a")
			th.Yield()
		}
	})
	s.Start("b", func(th *Thread) {
		for i := 0; i < 3; i++ {
			order = append(order, "b")
			th.Yield()
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "a", "b", "a", "b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v", order)
		}
	}
}

func TestNonPreemption(t *testing.T) {
	// A computing thread must not be preempted by a ready peer.
	m, s := testRig()
	var order []string
	s.Start("long", func(th *Thread) {
		th.Compute(100 * time.Microsecond)
		order = append(order, "long-done")
	})
	s.Start("short", func(th *Thread) {
		order = append(order, "short")
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if order[0] != "long-done" {
		t.Fatalf("preempted: %v", order)
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	m, s := testRig()
	var mu Mutex
	var inCrit int
	var maxIn int
	body := func(th *Thread) {
		mu.Lock(th)
		inCrit++
		if inCrit > maxIn {
			maxIn = inCrit
		}
		th.Compute(5 * time.Microsecond)
		th.Yield() // release the CPU inside the critical section
		inCrit--
		mu.Unlock(th)
	}
	for i := 0; i < 4; i++ {
		s.Start("w", body)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if maxIn != 1 {
		t.Fatalf("mutual exclusion violated: %d threads inside", maxIn)
	}
	acct := m.Node(0).Acct
	if n := acct.Counter(machine.CntSyncOp); n != 8 {
		t.Fatalf("sync ops = %d, want 8 (4 locks + 4 unlocks)", n)
	}
	if n := acct.Counter(machine.CntLockContended); n == 0 {
		t.Fatal("expected contended acquisitions")
	}
}

func TestMutexFIFOHandoff(t *testing.T) {
	m, s := testRig()
	var mu Mutex
	var order []string
	s.Start("holder", func(th *Thread) {
		mu.Lock(th)
		th.Compute(10 * time.Microsecond)
		mu.Unlock(th)
	})
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		s.Start(name, func(th *Thread) {
			mu.Lock(th)
			order = append(order, name)
			mu.Unlock(th)
		})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"w1", "w2", "w3"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("handoff order %v", order)
		}
	}
}

func TestTryLock(t *testing.T) {
	m, s := testRig()
	var mu Mutex
	var got []bool
	s.Start("main", func(th *Thread) {
		got = append(got, mu.TryLock(th)) // true
		got = append(got, mu.TryLock(th)) // false (already held)
		mu.Unlock(th)
		got = append(got, mu.TryLock(th)) // true again
		mu.Unlock(th)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !got[0] || got[1] || !got[2] {
		t.Fatalf("TryLock sequence %v", got)
	}
}

func TestCondSignal(t *testing.T) {
	m, s := testRig()
	var mu Mutex
	cond := Cond{M: &mu}
	ready := false
	var woke time.Duration
	s.Start("waiter", func(th *Thread) {
		mu.Lock(th)
		for !ready {
			cond.Wait(th)
		}
		woke = time.Duration(th.Now())
		mu.Unlock(th)
	})
	s.Start("signaler", func(th *Thread) {
		th.Compute(50 * time.Microsecond)
		mu.Lock(th)
		ready = true
		cond.Signal(th)
		mu.Unlock(th)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if woke < 50*time.Microsecond {
		t.Fatalf("waiter woke too early: %v", woke)
	}
}

func TestCondBroadcast(t *testing.T) {
	m, s := testRig()
	var mu Mutex
	cond := Cond{M: &mu}
	ready := false
	woken := 0
	for i := 0; i < 5; i++ {
		s.Start("waiter", func(th *Thread) {
			mu.Lock(th)
			for !ready {
				cond.Wait(th)
			}
			woken++
			mu.Unlock(th)
		})
	}
	s.Start("caster", func(th *Thread) {
		th.Compute(time.Microsecond)
		mu.Lock(th)
		ready = true
		cond.Broadcast(th)
		mu.Unlock(th)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 5 {
		t.Fatalf("only %d of 5 waiters woke", woken)
	}
}

func TestSyncVarWriteOnce(t *testing.T) {
	m, s := testRig()
	var sv SyncVar
	var got any
	s.Start("reader", func(th *Thread) { got = sv.Read(th) })
	s.Start("writer", func(th *Thread) {
		th.Compute(20 * time.Microsecond)
		sv.Write(th, 42)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("read %v", got)
	}
}

func TestSyncVarDoubleWritePanics(t *testing.T) {
	m, s := testRig()
	var sv SyncVar
	var recovered any
	s.Start("writer", func(th *Thread) {
		sv.Write(th, 1)
		defer func() { recovered = recover() }()
		sv.Write(th, 2)
	})
	_ = m.Run()
	if recovered == nil {
		t.Fatal("double write did not panic")
	}
}

func TestSyncVarReadAfterWriteImmediate(t *testing.T) {
	m, s := testRig()
	var sv SyncVar
	var got any
	s.Start("main", func(th *Thread) {
		sv.Write(th, "x")
		got = sv.Read(th)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "x" {
		t.Fatalf("got %v", got)
	}
}

func TestWaitGroupJoin(t *testing.T) {
	m, s := testRig()
	var wg WaitGroup
	wg.Add(3)
	sum := 0
	joined := false
	s.Start("main", func(th *Thread) {
		for i := 1; i <= 3; i++ {
			i := i
			th.Spawn("worker", func(w *Thread) {
				w.Compute(time.Duration(i) * time.Microsecond)
				sum += i
				wg.Done(w)
			})
		}
		wg.Wait(th)
		joined = true
		if sum != 6 {
			t.Errorf("sum = %d before join returned", sum)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !joined {
		t.Fatal("Wait never returned")
	}
}

func TestBlockMakeReadyAcrossEvent(t *testing.T) {
	// A thread blocked with no peer leaves the node idle; an engine event
	// (standing in for a message arrival) wakes it. Dispatch out of the idle
	// loop is free under the accounting policy (no context to restore from).
	m, s := testRig()
	var th0 *Thread
	var resumed time.Duration
	th0 = s.Start("sleeper", func(th *Thread) {
		th.Block()
		resumed = time.Duration(th.Now())
	})
	m.Eng.At(40*time.Microsecond, func() { s.MakeReady(th0) })
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if resumed != 40*time.Microsecond {
		t.Fatalf("resumed at %v, want 40µs", resumed)
	}
	if n := m.Node(0).Acct.Counter(machine.CntContextSwitch); n != 0 {
		t.Fatalf("switches = %d, want 0 (idle-wake is free)", n)
	}
}

func TestChargeFlops(t *testing.T) {
	m, s := testRig()
	s.Start("main", func(th *Thread) { th.ChargeFlops(1000) })
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Node(0).Acct.Get(machine.CatCPU); got != 25*time.Microsecond {
		t.Fatalf("1000 flops charged %v, want 25µs", got)
	}
}

func TestSchedulerLiveCount(t *testing.T) {
	m, s := testRig()
	s.Start("main", func(th *Thread) {
		if s.Live() != 1 {
			t.Errorf("live = %d, want 1", s.Live())
		}
		th.Spawn("c", func(*Thread) {})
		if s.Live() != 2 {
			t.Errorf("live = %d, want 2", s.Live())
		}
		th.Yield()
		if s.Live() != 1 {
			t.Errorf("live after child exit = %d, want 1", s.Live())
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Live() != 0 {
		t.Fatalf("live at end = %d", s.Live())
	}
}

func TestTwoNodesIndependentSchedulers(t *testing.T) {
	cfg := machine.Config{Name: "test", ContextSwitch: 6 * time.Microsecond}
	m := machine.New(cfg, 2)
	s0 := NewScheduler(m.Node(0))
	s1 := NewScheduler(m.Node(1))
	var t0, t1 time.Duration
	s0.Start("a", func(th *Thread) {
		th.Charge(machine.CatCPU, 30*time.Microsecond)
		t0 = time.Duration(th.Now())
	})
	s1.Start("b", func(th *Thread) {
		th.Charge(machine.CatCPU, 10*time.Microsecond)
		t1 = time.Duration(th.Now())
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Nodes compute in parallel: total virtual time is the max, not the sum.
	if m.Eng.Now() != 30*time.Microsecond {
		t.Fatalf("end time %v, want 30µs (parallel nodes)", m.Eng.Now())
	}
	if t0 != 30*time.Microsecond || t1 != 10*time.Microsecond {
		t.Fatalf("t0=%v t1=%v", t0, t1)
	}
}

// TestInterruptQueuesAndDispatches: a node's interrupt is its running thread
// while it lasts, so a thread it readies or spawns waits for its end and then
// runs, in order; and it counts as made runnable and then blocked, so the
// node's counts balance.
func TestInterruptQueuesAndDispatches(t *testing.T) {
	m, s := testRig()
	var order []string
	w := s.Start("waiter", func(th *Thread) {
		th.Block()
		order = append(order, "waiter")
	})
	m.Eng.After(time.Microsecond, func() {
		if !s.Idle() {
			t.Fatal("the node is not idle with its one thread blocked")
		}
		it := s.Interrupt()
		s.MakeReady(w)
		it.Spawn("child", func(*Thread) { order = append(order, "child") })
		order = append(order, it.Name())
		if s.Idle() || w.State() != Ready {
			t.Errorf("inside the interrupt: idle %v, waiter %v; want false, ready", s.Idle(), w.State())
		}
		s.EndInterrupt()
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[n0/interrupt waiter child]" {
		t.Errorf("ran %s, want the interrupt, then the waiter it readied, then the thread it spawned", got)
	}
	if r, p, i := counts(s); r != p || r != 4 || i != 1 {
		t.Errorf("readied %d, blocked or exited %d, interrupts %d; want 4, 4, 1", r, p, i)
	}
}

// counts reads s's node's thread.readied, thread.parked and thread.interrupts.
func counts(s *Scheduler) (readied, parked, interrupts int64) {
	a := s.Node().Acct
	return a.Counter(machine.CntThreadReadied), a.Counter(machine.CntThreadParked), a.Counter(machine.CntInterrupts)
}

// TestInterruptMustNotBlock: an interrupt that would block, or yield to a
// thread it readied, panics naming the node's interrupt context, and leaves
// the scheduler as it was.
func TestInterruptMustNotBlock(t *testing.T) {
	for _, op := range []string{"Block", "Yield"} {
		t.Run(op, func(t *testing.T) {
			m, s := testRig()
			var got any
			m.Eng.After(time.Microsecond, func() {
				it := s.Interrupt()
				it.Spawn("child", func(*Thread) {})
				r0, p0, _ := counts(s)
				func() {
					defer func() { got = recover() }()
					if op == "Block" {
						it.Block()
					} else {
						it.Yield()
					}
				}()
				if r, p, _ := counts(s); it.State() != Running || s.Idle() || s.ReadyLen() != 1 || r != r0 || p != p0 {
					t.Errorf("after the panic: interrupt %v, idle %v, %d ready, counts %d/%d (were %d/%d); want running, false, 1, unchanged",
						it.State(), s.Idle(), s.ReadyLen(), r, p, r0, p0)
				}
				s.EndInterrupt()
			})
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if msg, _ := got.(string); !strings.Contains(msg, op+" in node 0's interrupt context") {
				t.Errorf("%s in an interrupt panicked with %v, want one naming node 0's interrupt context", op, got)
			}
		})
	}
}
