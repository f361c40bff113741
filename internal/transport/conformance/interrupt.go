package conformance

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/am"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/threads"
)

// interruptAndPended: node 0 is sometimes idle and sometimes busy while three
// nodes stream to it, so on the wall clock some of its messages are handled on
// arrival, in its interrupt context on the sending goroutine, and some pend
// for the CPU's holder, which polls them itself. Each sender sends a
// sequence-numbered stream of one-ways with a round trip (a request node 0
// answers) every fourth message. Node 0's one thread alternates between
// computing without polling and waiting until a few more messages have been
// handled. Every stream must be handled in send order, every message exactly
// once, each handler counted at the node it ran for, and at the end every
// message sent must have been handled.
func interruptAndPended(t *testing.T, f ShardedFactory) {
	const (
		nodes = 4
		k     = 200 // messages per sender
		step  = 16  // messages node 0 waits for between spins
	)
	r := newRig(f(machine.SP1997(), nodes))
	var (
		next    [nodes]uint64 // node 0 state: the sequence number due from each sender
		bad     string        // node 0 state
		handled am.Count      // node 0's
		replies [nodes]am.Count
	)
	total := uint64((nodes - 1) * k)
	take := func(m am.Msg) {
		if m.A[0] != next[m.Src] && bad == "" {
			bad = fmt.Sprintf("node %d's message %d arrived when %d was due", m.Src, m.A[0], next[m.Src])
		}
		next[m.Src] = m.A[0] + 1
	}
	var hReply am.HandlerID
	hOne := r.register("conf.ip.one", func(th *threads.Thread, m am.Msg) {
		take(m)
		handled.Advance(th, 1)
	})
	hReq := r.register("conf.ip.req", func(th *threads.Thread, m am.Msg) {
		take(m)
		r.ep(0).Request(th, m.Src, hReply, [4]uint64{m.A[0]}, nil, false)
		handled.Advance(th, 1)
	})
	hReply = r.register("conf.ip.reply", func(th *threads.Thread, m am.Msg) {
		replies[m.Dst].Advance(th, 1)
	})
	r.scheds[0].Start("spinner", func(th *threads.Thread) {
		for handled.Value() < total {
			for start := time.Now(); time.Since(start) < 50*time.Microsecond; {
				th.Compute(time.Microsecond) // no poll: the CPU stays busy
			}
			r.ep(0).Await(th, &handled, min(handled.Value()+step, total))
		}
	})
	for s := 1; s < nodes; s++ {
		r.scheds[s].Start("sender", func(th *threads.Thread) {
			ep := r.ep(s)
			for i := uint64(0); i < k; i++ {
				if i%4 != 3 {
					ep.Request(th, 0, hOne, [4]uint64{i}, nil, false)
					continue
				}
				ep.Request(th, 0, hReq, [4]uint64{i}, nil, false)
				ep.Await(th, &replies[s], (i+1)/4)
			}
		})
	}
	if err := r.run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if bad != "" {
		t.Fatal(bad)
	}
	for s := 1; s < nodes; s++ {
		if next[s] != k || replies[s].Value() != k/4 {
			t.Errorf("node %d: %d of its %d messages handled, %d of %d replies; want all", s, next[s], k, replies[s].Value(), k/4)
		}
	}
	var sent, got int64
	for i := 0; i < nodes; i++ {
		want := int64(k / 4) // a sender handles its replies
		if i == 0 {
			want = int64(total)
		}
		acct := r.ep(i).Node().Acct
		n := acct.Counter(machine.CntHandlersRun)
		if n != want {
			t.Errorf("node %d counted %d handlers, want %d: a handler counted at the node whose goroutine ran it?", i, n, want)
		}
		sent, got = sent+acct.Counter(machine.CntMsgShort)+acct.Counter(machine.CntMsgBulk), got+n
	}
	if sent != got {
		t.Errorf("%d messages sent, %d handled at the end of the run", sent, got)
	}
	if nd := r.ep(0).Node(); nd.Met != nil {
		t.Logf("node 0: %d interrupts, %d notifies pended", nd.Acct.Counter(machine.CntInterrupts), nd.Met.Counter(metrics.CtrNotifies))
	}
}
