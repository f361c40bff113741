package core

import (
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/race"
	"repro/internal/threads"
	"repro/internal/transport/live"
)

// allocBenchClass is the warm-path test class: a null method and a 1 KiB
// byte sink.
func allocBenchClass() *Class {
	return &Class{
		Name: "AllocBench",
		New:  func() any { return &allocBenchObj{buf: make([]byte, 1024)} },
		Methods: []*Method{
			{Name: "null", Fn: func(t *threads.Thread, self any, args []Arg, ret Arg) {}},
			{Name: "sink",
				NewArgs: func() []Arg { return []Arg{&Bytes{}} },
				Fn: func(t *threads.Thread, self any, args []Arg, ret Arg) {
					copy(self.(*allocBenchObj).buf, args[0].(*Bytes).V)
				}},
		},
	}
}

type allocBenchObj struct{ buf []byte }

// TestWarmPathAllocsPerRun pins the warm-path allocation budget of the live
// backend: a warm null RMI round trip and a warm 1 KiB bulk RMI must each
// average 0 allocations per operation across the whole machine (sender and
// receiver both run inside the measurement window). Pooled wire buffers,
// recycled call records and decode frames, ring inboxes, and closure-free
// delivery are what keep the number there; a regression anywhere on the path
// shows up here as a budget overrun. Under the race detector sync.Pool drops
// entries at random and the same run reads 0–2, so there the budget is 2.
func TestWarmPathAllocsPerRun(t *testing.T) {
	budget := 0.0
	if race.Enabled {
		budget = 2
	}
	m := machine.NewWithBackend(machine.SP1997(), 2,
		live.New(2, live.Options{Watchdog: 2 * time.Minute}))
	rt := NewRuntime(m)
	rt.RegisterClass(allocBenchClass())
	gp := rt.CreateObject(1, "AllocBench")
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	arg := &Bytes{V: payload}
	argSlice := []Arg{arg}
	var nullAllocs, bulkAllocs float64
	rt.OnNode(0, func(th *threads.Thread) {
		// Warm everything: stub cache, persistent R-buffers, wire-buffer
		// pools, call records, decode frames, ring capacities.
		for i := 0; i < 8; i++ {
			rt.Call(th, gp, "null", nil, nil)
			rt.Call(th, gp, "sink", argSlice, nil)
		}
		// A GC inside the measured window would drain the sync.Pools and
		// make their refills count against the budget; switch it off for
		// determinism (the warm path's whole point is that it produces no
		// garbage to collect).
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		nullAllocs = testing.AllocsPerRun(300, func() {
			rt.Call(th, gp, "null", nil, nil)
		})
		bulkAllocs = testing.AllocsPerRun(300, func() {
			rt.Call(th, gp, "sink", argSlice, nil)
		})
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	t.Logf("warm null RMI: %.2f allocs/op; warm 1KiB bulk: %.2f allocs/op", nullAllocs, bulkAllocs)
	if nullAllocs > budget {
		t.Errorf("warm null RMI allocates %.2f/op, budget %v", nullAllocs, budget)
	}
	if bulkAllocs > budget {
		t.Errorf("warm 1KiB bulk RMI allocates %.2f/op, budget %v", bulkAllocs, budget)
	}
	// The budget above must hold WITH observability on, not by switching it
	// off: prove the metrics plane was live and recording throughout the
	// measured window. Every measured round trip observes into the RMI
	// latency histogram — atomics into preallocated buckets, zero garbage.
	snap, ok := m.Metrics()
	if !ok {
		t.Fatal("live machine reports no metrics plane; the alloc budget must be measured with metrics enabled")
	}
	if n := snap.Hist(metrics.HstRMILatency).Count; n < 300 {
		t.Errorf("RMI latency histogram recorded %d round trips during an instrumented run, want >= 300", n)
	}
}

// TestWarmNullRMIWakesNoThread pins the goroutine hand-offs of a warm null
// RMI on the live backend the way TestWarmPathAllocsPerRun pins its
// allocations: the request finds node 1 idle, so its sender runs the handler
// in node 1's interrupt context and no thread of node 1 is dispatched, and a
// round trip makes polls polls, counted on both nodes. A change that wakes
// node 1's poller again, or adds a poll, fails here in one run.
func TestWarmNullRMIWakesNoThread(t *testing.T) {
	const runs, polls = 300, 3
	m := machine.NewWithBackend(machine.SP1997(), 2,
		live.New(2, live.Options{Watchdog: 2 * time.Minute}))
	rt := NewRuntime(m)
	rt.RegisterClass(allocBenchClass())
	gp := rt.CreateObject(1, "AllocBench")
	acct1 := m.Node(1).Acct
	var readied, intrs, polled int64
	rt.OnNode(0, func(th *threads.Thread) {
		for i := 0; i < 8; i++ {
			rt.Call(th, gp, "null", nil, nil)
		}
		r0, i0, p0 := acct1.Counter(machine.CntThreadReadied), acct1.Counter(machine.CntInterrupts), pollCount(m)
		for i := 0; i < runs; i++ {
			rt.Call(th, gp, "null", nil, nil)
		}
		readied = acct1.Counter(machine.CntThreadReadied) - r0
		intrs, polled = acct1.Counter(machine.CntInterrupts)-i0, pollCount(m)-p0
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d warm null RMIs: node 1 ran %d interrupts and dispatched %d threads; %.2f polls per round trip", runs, intrs, readied-intrs, float64(polled)/runs)
	if intrs != runs || readied != intrs {
		t.Errorf("node 1 ran %d interrupts and dispatched %d threads in %d warm null RMIs, want %d and 0", intrs, readied-intrs, runs, runs)
	}
	if polled != runs*polls {
		t.Errorf("%d warm null RMIs made %d polls, want %d per round trip", runs, polled, polls)
	}
}

// pollCount sums the polls of m's nodes.
func pollCount(m *machine.Machine) (n int64) {
	for _, nd := range m.Nodes() {
		n += nd.Acct.Counter(machine.CntPolls)
	}
	return n
}

// TestGPAccessAllocs pins the allocation count of a warm remote GP access on
// the live backend, sender and owner both inside the measurement window and
// metrics on. The owner's fresh serving thread (Table 4's create) is most of
// it; the sender's record comes from a pool and the double lands in it, so a
// record, completion or landing slot built per access shows up here.
func TestGPAccessAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const runs, budget = 300, 9
	m := machine.NewWithBackend(machine.SP1997(), 2,
		live.New(2, live.Options{Watchdog: 2 * time.Minute}))
	rt := NewRuntime(m)
	x := []float64{1.5}
	gp := NewGPF64(1, rt.AddF64([][]float64{nil, x}), 0)
	var read, write float64
	rt.OnNode(0, func(th *threads.Thread) {
		for i := 0; i < 8; i++ { // warm the pools, the pending table and the rings
			rt.WriteF64(th, gp, rt.ReadF64(th, gp))
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		read = testing.AllocsPerRun(runs, func() { _ = rt.ReadF64(th, gp) })
		write = testing.AllocsPerRun(runs, func() { rt.WriteF64(th, gp, 2.5) })
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	t.Logf("warm remote ReadF64 %.2f, WriteF64 %.2f allocs/op (sender and owner)", read, write)
	if read > budget || write > budget {
		t.Errorf("warm remote ReadF64/WriteF64 allocate %.2f/%.2f per op, budget %d", read, write, budget)
	}
	if x[0] != 2.5 {
		t.Errorf("the owner's double reads %v after the measured writes, want 2.5", x[0])
	}
	snap, ok := m.Metrics()
	if !ok {
		t.Fatal("live machine reports no metrics plane; the budget must be measured with metrics enabled")
	}
	if n := snap.Hist(metrics.HstRMILatency).Count; n < 2*runs {
		t.Errorf("RMI latency histogram recorded %d round trips, want >= %d: the GP accesses were not timed", n, 2*runs)
	}
}
