package mpmd_test

import (
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/race"
	"repro/mpmd"
)

// distAllocRig is a 2-node live machine with a Dist[float64] whose second
// half node 1 owns; node 1 runs no program — its polling thread serves — so
// everything the two sides of an access allocate lands in node 0's
// measurement.
func distAllocRig(tb testing.TB, prog func(th *mpmd.Thread, d *mpmd.Dist[float64], remote int)) *mpmd.Machine {
	m := mpmd.NewMachineWithBackend(mpmd.SPConfig(), 2,
		mpmd.NewLiveBackend(2, mpmd.LiveOptions{Watchdog: 5 * time.Minute}))
	rt := mpmd.NewRuntime(m)
	tm, err := mpmd.WorldTeam(rt)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := mpmd.NewDist[float64](tm, 8, mpmd.LayoutBlock)
	if err != nil {
		tb.Fatal(err)
	}
	rt.OnNode(0, func(th *mpmd.Thread) { prog(th, d, 6) })
	if err := rt.Run(); err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestDistGetAllocs pins the allocation budget of a remote element access on
// the live backend, both sides counted, metrics on: the future of a
// split-phase get is its one allocation (completion, landing bytes and
// round-trip stamp are embedded in it), the synchronous accessors run on
// pooled records, and the owner encodes into the message words from a
// per-node scratch buffer.
func TestDistGetAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const runs = 300
	var async, get, put float64
	m := distAllocRig(t, func(th *mpmd.Thread, d *mpmd.Dist[float64], remote int) {
		for i := 0; i < 16; i++ { // warm pools, pending table
			f, _ := d.GetAsync(th, remote)
			f.Wait(th)
			_, _ = d.Get(th, remote)
			_ = d.Put(th, remote, 1)
		}
		// A GC in the window would drain the pools and charge their refills.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		async = testing.AllocsPerRun(runs, func() {
			f, _ := d.GetAsync(th, remote)
			f.Wait(th)
		})
		get = testing.AllocsPerRun(runs, func() { _, _ = d.Get(th, remote) })
		put = testing.AllocsPerRun(runs, func() { _ = d.Put(th, remote, 2.5) })
		if v, err := d.Get(th, remote); err != nil || v != 2.5 {
			t.Errorf("element reads %v, %v after the measured puts", v, err)
		}
	})
	t.Logf("GetAsync+Wait %.2f, Get %.2f, Put %.2f allocs/op (client and owner)", async, get, put)
	if async > 1 {
		t.Errorf("GetAsync+Wait allocates %.2f/op, budget 1 (the future)", async)
	}
	if get > 0 || put > 0 {
		t.Errorf("synchronous Get/Put allocate %.2f/%.2f per op, budget 0", get, put)
	}
	snap, ok := m.Metrics()
	if !ok {
		t.Fatal("live machine reports no metrics plane; the budget must hold with metrics enabled")
	}
	if n := snap.Hist(metrics.HstRMILatency).Count; n < 3*runs {
		t.Errorf("round-trip histogram recorded %d accesses during an instrumented run, want >= %d", n, 3*runs)
	}
}

// BenchmarkDistGetAsync is the split-phase remote get on the live backend;
// CI's allocation-regression step holds its allocs/op to the budget of 1.
func BenchmarkDistGetAsync(b *testing.B) {
	distAllocRig(b, func(th *mpmd.Thread, d *mpmd.Dist[float64], remote int) {
		for i := 0; i < 16; i++ {
			f, _ := d.GetAsync(th, remote)
			f.Wait(th)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, _ := d.GetAsync(th, remote)
			f.Wait(th)
		}
		b.StopTimer()
	})
}

// BenchmarkDistGet is the synchronous remote get (pooled record): 0
// allocs/op.
func BenchmarkDistGet(b *testing.B) {
	distAllocRig(b, func(th *mpmd.Thread, d *mpmd.Dist[float64], remote int) {
		for i := 0; i < 16; i++ {
			_, _ = d.Get(th, remote)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = d.Get(th, remote)
		}
		b.StopTimer()
	})
}
