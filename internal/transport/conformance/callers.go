package conformance

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/am"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/metrics"
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

// oneWayChain: the run ends when its work does, however late the last of it
// comes. Node 0's main sends one one-way RMI to a threaded method on the last
// node and returns; the method waits d and sends a one-way active message back
// to a counter on node 0. On the simulator d is a modelled compute, elsewhere
// wall-clock time, and nothing may end the run while it passes. The long chain
// hops between the two nodes a hundred times, with a seeded random wait of up
// to 5 ms at each hop. Every hop must be counted and Run must return nil, and
// the counter's handler — the last work of the run — must see more messages
// sent than handled machine-wide: a message whose handler still runs is not
// handled, or the machine could look finished before its last work is done.
//
// In the handler row the main's message goes straight to the counter, on the
// last node, and its handler waits 50 ms on the node's poller. The run must
// wait for it, and across shards the end-of-run waves must wait with it
// rather than repeat while it runs: a handful of wave frames, not one per
// socket round trip.
func oneWayChain(t *testing.T, f ShardedFactory) {
	rnd := rand.New(rand.NewPCG(1, 33))
	long := make([]time.Duration, 99)
	for i := range long {
		long[i] = time.Duration(rnd.Int64N(int64(5 * time.Millisecond)))
	}
	for _, tc := range []struct {
		name  string
		waits []time.Duration // one per threaded hop; the last hop is the counter
		last  time.Duration   // the counter's handler's wait
	}{
		{"0", []time.Duration{0}, 0},
		{"5ms", []time.Duration{5 * time.Millisecond}, 0},
		{"50ms", []time.Duration{50 * time.Millisecond}, 0},
		{"100hops", long, 0},
		{"handler50ms", nil, 50 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) { chain(t, f, tc.waits, tc.last) })
	}
}

// maxWaveFrames bounds the wave frames of a run whose last work is one long
// handler: a few waves, each a probe and an answer, around the handler.
const maxWaveFrames = 40

// chain runs one oneWayChain: hop h of the threaded ones runs on the last node
// when h is even and on node 0 when it is odd, so with an odd number of them
// the last one sends the counter's hop from the last node to node 0. With none
// node 0's main sends it to the last node.
func chain(t *testing.T, f ShardedFactory, waits []time.Duration, last time.Duration) {
	const nodes = 4
	ms := f(machine.SP1997(), nodes)
	rts := make([]*core.Runtime, len(ms))
	hops := make([]int, nodes) // hops[i] is node i state
	var bad string             // the counter's node's state
	counts := func() (c [4]uint64) {
		for _, rt := range rts {
			for i, v := range core.Counts(rt) {
				c[i] += v
			}
		}
		return c
	}
	for k, m := range ms {
		rt := core.NewRuntime(m)
		rts[k] = rt
		hCount := rt.Handle("conf.chain.count", func(th *threads.Thread, _ am.Msg) {
			hops[th.Node().ID]++
			if c := counts(); c[0] <= c[1] {
				bad = fmt.Sprintf("the last hop's handler is running, yet %d messages sent and %d handled: it counted as handled before it ran", c[0], c[1])
			}
			th.Compute(last)
			if rt.Machine().Eng == nil {
				time.Sleep(last)
			}
		})
		var gps [2]core.GPtr // the chain objects on node 0 and on the last node
		rt.RegisterClass(&core.Class{
			Name: "conf.chain",
			New:  func() any { return new(int) },
			Methods: []*core.Method{{
				Name:     "hop",
				Threaded: true,
				NewArgs:  func() []core.Arg { return []core.Arg{&core.I64{}} },
				Fn: func(th *threads.Thread, _ any, args []core.Arg, _ core.Arg) {
					h := int(args[0].(*core.I64).V)
					hops[th.Node().ID]++
					th.Compute(waits[h])
					if rt.Machine().Eng == nil {
						time.Sleep(waits[h])
					}
					if h+1 == len(waits) {
						rt.Send(th, 0, hCount, [4]uint64{}, nil)
						return
					}
					rt.CallOneWay(th, gps[h%2], "hop", []core.Arg{&core.I64{V: int64(h + 1)}})
				},
			}},
		})
		gps = [2]core.GPtr{rt.CreateObject(0, "conf.chain"), rt.CreateObject(nodes-1, "conf.chain")}
		rt.OnNode(0, func(th *threads.Thread) {
			if len(waits) == 0 {
				rt.Send(th, nodes-1, hCount, [4]uint64{}, nil)
				return
			}
			rt.CallOneWay(th, gps[1], "hop", []core.Arg{&core.I64{V: 0}})
		})
	}
	if err := collRun(rts); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if bad != "" {
		t.Fatal(bad)
	}
	if got := hops[0] + hops[nodes-1]; got != len(waits)+1 {
		t.Fatalf("%d of %d hops counted (node 0: %d, node %d: %d): the run ended before its last one-way RMI was handled",
			got, len(waits)+1, hops[0], nodes-1, hops[nodes-1])
	}
	var waves int64
	for _, m := range ms {
		if mb, ok := m.Backend().(interface{ MetricsSnapshot() metrics.Snapshot }); ok {
			waves += mb.MetricsSnapshot().Counter(metrics.CtrWaveFrames)
		}
	}
	t.Logf("%d wave frames", waves)
	if len(waits) == 0 && waves > maxWaveFrames {
		t.Fatalf("%d wave frames while one %v handler ended the run, want at most %d: the waves spun instead of waiting for it",
			waves, last, maxWaveFrames)
	}
}
