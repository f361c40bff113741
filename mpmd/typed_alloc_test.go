package mpmd_test

import (
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/race"
	"repro/mpmd"
)

// allocSrv is the typed counterpart of core's allocBenchClass: a null method
// and a byte sink.
type allocSrv struct{ buf [1024]byte }

func (s *allocSrv) Null(t *mpmd.Thread) {}

func (s *allocSrv) Sink(t *mpmd.Thread, b []byte) { copy(s.buf[:], b) }

// typedAllocRig is a 2-node live machine with an allocSrv on node 1; node 1
// runs no program, so what both sides of an Invoke allocate lands in node
// 0's measurement.
func typedAllocRig(tb testing.TB, prog func(th *mpmd.Thread, srv mpmd.Ref[allocSrv])) *mpmd.Machine {
	m := mpmd.NewMachineWithBackend(mpmd.SPConfig(), 2,
		mpmd.NewLiveBackend(2, mpmd.LiveOptions{Watchdog: 5 * time.Minute}))
	rt := mpmd.NewRuntime(m)
	if err := mpmd.RegisterClass[allocSrv](rt); err != nil {
		tb.Fatal(err)
	}
	srv, err := mpmd.NewObject[allocSrv](rt, 1)
	if err != nil {
		tb.Fatal(err)
	}
	rt.OnNode(0, func(th *mpmd.Thread) { prog(th, srv) })
	if err := rt.Run(); err != nil {
		tb.Fatal(err)
	}
	return m
}

func invokeNull(th *mpmd.Thread, srv mpmd.Ref[allocSrv]) {
	_, _ = mpmd.Invoke[mpmd.Void, mpmd.Void](th, srv, "Null", mpmd.Void{})
}

func invokeSink(th *mpmd.Thread, srv mpmd.Ref[allocSrv], b []byte) {
	_, _ = mpmd.Invoke[[]byte, mpmd.Void](th, srv, "Sink", b)
}

// TestInvokeAllocs pins the typed path every benchmark workload takes, where
// TestWarmPathAllocsPerRun pins the untyped Call under it: a warm null Invoke
// allocates nothing on either side (the sender's record is pooled), and a
// warm Invoke of a 1 KiB []byte allocates the argument's slice header — the
// façade takes its address, so it moves to the heap — and nothing else: the
// receiver decodes in place into its pooled frame and the trampoline hands
// the method that value. The parent of the view design (11097ac) read 0.00
// and 2.00 here, the second being the receiver's reflect.New of an argument
// value per call (rmigen's TestTrampolineAllocs counts it alone).
func TestInvokeAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const runs = 300
	payload := make([]byte, 1024)
	var null, bulk float64
	m := typedAllocRig(t, func(th *mpmd.Thread, srv mpmd.Ref[allocSrv]) {
		for i := 0; i < 16; i++ { // warm stub cache, pools, R-buffers
			invokeNull(th, srv)
			invokeSink(th, srv, payload)
		}
		// A GC in the window would drain the pools and charge their refills.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		null = testing.AllocsPerRun(runs, func() { invokeNull(th, srv) })
		bulk = testing.AllocsPerRun(runs, func() { invokeSink(th, srv, payload) })
	})
	t.Logf("Invoke[Void,Void] %.2f, Invoke[[]byte,Void] of 1 KiB %.2f allocs/op (sender and receiver)", null, bulk)
	if null > 0 {
		t.Errorf("warm null Invoke allocates %.2f/op, budget 0", null)
	}
	if bulk > 1 {
		t.Errorf("warm 1 KiB Invoke allocates %.2f/op, budget 1 (the argument's slice header)", bulk)
	}
	snap, ok := m.Metrics()
	if !ok {
		t.Fatal("live machine reports no metrics plane; the budget must hold with metrics enabled")
	}
	if n := snap.Hist(metrics.HstRMILatency).Count; n < 2*runs {
		t.Errorf("round-trip histogram recorded %d calls during an instrumented run, want >= %d", n, 2*runs)
	}
}

func invokeAsyncNull(th *mpmd.Thread, srv mpmd.Ref[allocSrv]) {
	fu, _ := mpmd.InvokeAsync[mpmd.Void, mpmd.Void](th, srv, "Null", mpmd.Void{})
	fu.Wait(th)
}

func invokeAsyncSink(th *mpmd.Thread, srv mpmd.Ref[allocSrv], b []byte) {
	fu, _ := mpmd.InvokeAsync[[]byte, mpmd.Void](th, srv, "Sink", b)
	fu.Wait(th)
}

// oneWayNull and oneWaySink send a one-way RMI paced by a null Invoke, which
// allocates nothing: one-ways nothing waits for would otherwise pile up in
// the destination's inbox and be counted as they are drained.
func oneWayNull(th *mpmd.Thread, srv mpmd.Ref[allocSrv]) {
	_ = mpmd.InvokeOneWay(th, srv, "Null", mpmd.Void{})
	invokeNull(th, srv)
}

func oneWaySink(th *mpmd.Thread, srv mpmd.Ref[allocSrv], b []byte) {
	_ = mpmd.InvokeOneWay(th, srv, "Sink", b)
	invokeNull(th, srv)
}

// TestAsyncAllocs is TestInvokeAllocs for the calls nothing waits on at once.
// An InvokeAsync allocates its future, which holds its records — the core
// record its reply lands through and the typed call record — and a 1 KiB
// argument's slice header besides (5 and 6 before the future held them). A
// one-way has no record at all: the null one allocates nothing, the 1 KiB one
// its argument's slice header (2 and 3 before).
func TestAsyncAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const runs = 300
	payload := make([]byte, 1024)
	var async, asyncBulk, oneWay, oneWayBulk float64
	typedAllocRig(t, func(th *mpmd.Thread, srv mpmd.Ref[allocSrv]) {
		for i := 0; i < 16; i++ {
			invokeAsyncNull(th, srv)
			invokeAsyncSink(th, srv, payload)
			oneWayNull(th, srv)
			oneWaySink(th, srv, payload)
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		async = testing.AllocsPerRun(runs, func() { invokeAsyncNull(th, srv) })
		asyncBulk = testing.AllocsPerRun(runs, func() { invokeAsyncSink(th, srv, payload) })
		oneWay = testing.AllocsPerRun(runs, func() { oneWayNull(th, srv) })
		oneWayBulk = testing.AllocsPerRun(runs, func() { oneWaySink(th, srv, payload) })
	})
	t.Logf("InvokeAsync+Wait null %.2f, 1 KiB %.2f; paced InvokeOneWay null %.2f, 1 KiB %.2f allocs/op (sender and receiver)",
		async, asyncBulk, oneWay, oneWayBulk)
	for _, g := range []struct {
		what      string
		got, want float64
	}{
		{"InvokeAsync+Wait of a null call", async, 1},
		{"InvokeAsync+Wait of a 1 KiB call", asyncBulk, 2},
		{"paced InvokeOneWay of a null call", oneWay, 0},
		{"paced InvokeOneWay of a 1 KiB call", oneWayBulk, 1},
	} {
		if g.got > g.want {
			t.Errorf("warm %s allocates %.2f/op, budget %.0f", g.what, g.got, g.want)
		}
	}
}

// BenchmarkInvokeNull, BenchmarkInvokeBulk, BenchmarkInvokeAsync and
// BenchmarkInvokeOneWay are the -benchmem companions CI's
// allocation-regression step reads.
func BenchmarkInvokeNull(b *testing.B) {
	typedAllocRig(b, func(th *mpmd.Thread, srv mpmd.Ref[allocSrv]) {
		for i := 0; i < 16; i++ {
			invokeNull(th, srv)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			invokeNull(th, srv)
		}
		b.StopTimer()
	})
}

func BenchmarkInvokeBulk(b *testing.B) {
	payload := make([]byte, 1024)
	typedAllocRig(b, func(th *mpmd.Thread, srv mpmd.Ref[allocSrv]) {
		for i := 0; i < 16; i++ {
			invokeSink(th, srv, payload)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			invokeSink(th, srv, payload)
		}
		b.StopTimer()
	})
}

func BenchmarkInvokeAsync(b *testing.B) {
	typedAllocRig(b, func(th *mpmd.Thread, srv mpmd.Ref[allocSrv]) {
		for i := 0; i < 16; i++ {
			invokeAsyncNull(th, srv)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			invokeAsyncNull(th, srv)
		}
		b.StopTimer()
	})
}

func BenchmarkInvokeOneWay(b *testing.B) {
	typedAllocRig(b, func(th *mpmd.Thread, srv mpmd.Ref[allocSrv]) {
		for i := 0; i < 16; i++ {
			oneWayNull(th, srv)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			oneWayNull(th, srv)
		}
		b.StopTimer()
	})
}
