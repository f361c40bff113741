package conformance

import (
	"testing"
	"time"

	"repro/internal/am"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/threads"
)

// Blocking-call conformance: how a thread waits for its RMI reply differs by
// backend (a sync variable the polling thread writes on the simulator; the
// caller polling for itself on the wall-clock backends), and the contract is
// the same everywhere: the call returns once its reply is in, whichever
// thread of the node happened to handle that reply, and waiting costs a
// bounded number of thread switches, not a switch per look at the network.

// gate is a processor object whose hold method parks its (threaded)
// invocation until a release call lets it go, in arrival order.
type gate struct {
	mu       threads.Mutex
	cond     threads.Cond
	arrived  int64
	released int64
}

func gateClass() *core.Class {
	return &core.Class{
		Name: "conf.gate",
		New:  func() any { g := &gate{}; g.cond.M = &g.mu; return g },
		Methods: []*core.Method{
			{
				Name:     "hold",
				Threaded: true,
				NewRet:   func() core.Arg { return &core.I64{} },
				Fn: func(t *threads.Thread, self any, _ []core.Arg, ret core.Arg) {
					g := self.(*gate)
					g.mu.Lock(t)
					ticket := g.arrived
					g.arrived++
					for g.released <= ticket {
						g.cond.Wait(t)
					}
					g.mu.Unlock(t)
					ret.(*core.I64).V = ticket
				},
			},
			{
				Name:   "arrived",
				NewRet: func() core.Arg { return &core.I64{} },
				Fn: func(_ *threads.Thread, self any, _ []core.Arg, ret core.Arg) {
					ret.(*core.I64).V = self.(*gate).arrived
				},
			},
			{
				Name:     "release",
				Threaded: true,
				Fn: func(t *threads.Thread, self any, _ []core.Arg, _ core.Arg) {
					g := self.(*gate)
					g.mu.Lock(t)
					g.released++
					g.cond.Broadcast(t)
					g.mu.Unlock(t)
				},
			},
		},
	}
}

// twoCallersOneNode: two threads of node 0 are blocked in calls to node 2 at
// once; node 1 — a third node — releases the two replies in issue order,
// after both callers have been waiting a while. The first reply wakes the
// node's most recent message waiter, which is the *other* caller: it handles
// a reply that is not its own and must get the owner going. Both calls
// return with their own results, and node 0 pays a handful of thread switches
// for the whole exchange — two waiters that yield to each other while they
// wait would pay thousands.
func twoCallersOneNode(t *testing.T, f ShardedFactory) {
	const (
		waitWall   = 20 * time.Millisecond // how long both callers stay blocked (wall-clock backends)
		waitModel  = 500 * time.Microsecond
		switchesOK = 24
	)
	ms := f(machine.SP1997(), 3)
	rts := make([]*core.Runtime, len(ms))
	gps := make([]core.GPtr, len(ms))
	for k, m := range ms {
		rts[k] = core.NewRuntime(m)
		rts[k].RegisterClass(gateClass())
		gps[k] = rts[k].CreateObject(2, "conf.gate")
	}
	var tickets [2]int64
	for k, rt := range rts {
		rt, gp := rt, gps[k]
		rt.OnNode(0, func(th *threads.Thread) {
			var join threads.WaitGroup
			join.Add(1)
			th.Spawn("second-caller", func(t2 *threads.Thread) {
				var r core.I64
				rt.Call(t2, gp, "hold", nil, &r)
				tickets[1] = r.V
				join.Done(t2)
			})
			var r core.I64
			rt.Call(th, gp, "hold", nil, &r)
			tickets[0] = r.V
			join.Wait(th)
		})
		rt.OnNode(1, func(th *threads.Thread) {
			for {
				var n core.I64
				rt.Call(th, gp, "arrived", nil, &n)
				if n.V == 2 {
					break
				}
			}
			th.Compute(waitModel)
			if rt.Machine().Eng == nil {
				time.Sleep(waitWall)
			}
			rt.Call(th, gp, "release", nil, nil)
			rt.Call(th, gp, "release", nil, nil)
		})
	}
	tickets = [2]int64{-1, -1}
	if err := collRun(rts); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if tickets != [2]int64{0, 1} {
		t.Fatalf("callers returned tickets %v, want [0 1]: a call returned early, or with the other's reply", tickets)
	}
	if sw := ms[0].Node(0).Acct.Counter(machine.CntContextSwitch); sw > switchesOK {
		t.Fatalf("node 0 switched threads %d times while two callers waited, want at most %d: the waiters busy-yield", sw, switchesOK)
	}
}

// tally is a processor object holding a count that its one-way bump method
// advances, and how many threads have started waiting on it.
type tally struct {
	waiting int64
	c       am.Count
}

func tallyClass() *core.Class {
	return &core.Class{
		Name: "conf.tally",
		New:  func() any { return &tally{} },
		Methods: []*core.Method{
			{
				Name:   "waiting",
				NewRet: func() core.Arg { return &core.I64{} },
				Fn: func(_ *threads.Thread, self any, _ []core.Arg, ret core.Arg) {
					ret.(*core.I64).V = self.(*tally).waiting
				},
			},
			{
				Name: "bump",
				Fn: func(t *threads.Thread, self any, _ []core.Arg, _ core.Arg) {
					self.(*tally).c.Advance(t, 1)
				},
			},
		},
	}
}

// twoWaitersOneNode is twoCallersOneNode for WaitLocal: two threads of node 0
// wait on one node-local count, and node 1 advances it with two one-way RMIs
// after both have been waiting a while. Whichever thread polls a bump in
// readies the other through the count. Both must return. On a wall-clock
// machine node 0 pays a handful of thread switches for the whole wait; on the
// simulator a waiter yields to a ready sibling by design — that yield is
// priced, and the goldens pin it — so there the switches are not bounded.
func twoWaitersOneNode(t *testing.T, f ShardedFactory) {
	const (
		waitWall   = 20 * time.Millisecond // how long both waiters stay blocked (wall-clock backends)
		waitModel  = 500 * time.Microsecond
		switchesOK = 24
	)
	ms := f(machine.SP1997(), 2)
	rts := make([]*core.Runtime, len(ms))
	gps := make([]core.GPtr, len(ms))
	for k, m := range ms {
		rts[k] = core.NewRuntime(m)
		rts[k].RegisterClass(tallyClass())
		gps[k] = rts[k].CreateObject(0, "conf.tally")
	}
	var returned [2]bool
	for k, rt := range rts {
		rt, gp := rt, gps[k]
		rt.OnNode(0, func(th *threads.Thread) {
			tl := rt.Object(gp).(*tally)
			wait := func(t2 *threads.Thread, i int) {
				tl.waiting++
				rt.WaitLocal(t2, &tl.c, 2)
				returned[i] = true
			}
			var join threads.WaitGroup
			join.Add(1)
			th.Spawn("second-waiter", func(t2 *threads.Thread) {
				wait(t2, 1)
				join.Done(t2)
			})
			wait(th, 0)
			join.Wait(th)
		})
		rt.OnNode(1, func(th *threads.Thread) {
			for {
				var n core.I64
				rt.Call(th, gp, "waiting", nil, &n)
				if n.V == 2 {
					break
				}
			}
			th.Compute(waitModel)
			if rt.Machine().Eng == nil {
				time.Sleep(waitWall)
			}
			rt.CallOneWay(th, gp, "bump", nil)
			rt.CallOneWay(th, gp, "bump", nil)
		})
	}
	if err := collRun(rts); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if returned != [2]bool{true, true} {
		t.Fatalf("waiters returned %v, want both", returned)
	}
	if sw := ms[0].Node(0).Acct.Counter(machine.CntContextSwitch); ms[0].Eng == nil && sw > switchesOK {
		t.Fatalf("node 0 switched threads %d times while two threads waited on one count, want at most %d: the waiters busy-yield", sw, switchesOK)
	}
}
