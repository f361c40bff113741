package taskfarm

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/apps/appstat"
	"repro/internal/machine"
	"repro/internal/transport/live"
)

func params(skew float64) Params {
	return Params{Tasks: 200, Procs: 4, MeanCost: 200 * time.Microsecond, Skew: skew, Seed: 9}
}

func TestWorkloadDeterministicAndConserved(t *testing.T) {
	a, b := Build(params(0.8)), Build(params(0.8))
	for i := range a.Costs {
		if a.Costs[i] != b.Costs[i] {
			t.Fatal("workload not deterministic")
		}
	}
	// Total work is within 2x of Tasks*MeanCost regardless of skew (the
	// tail redistributes mass, it should not mint much of it).
	for _, skew := range []float64{0, 0.4, 0.8, 0.95} {
		w := Build(params(skew))
		total := w.TotalWork()
		nominal := time.Duration(w.P.Tasks) * w.P.MeanCost
		if total < nominal/2 || total > nominal*2 {
			t.Errorf("skew %.2f: total work %v vs nominal %v", skew, total, nominal)
		}
	}
}

func TestSkewConcentratesWork(t *testing.T) {
	// At skew 0.9 the hot region (around 70% of the index space) must hold
	// most of the total work.
	w := Build(params(0.9))
	var region, sum time.Duration
	for i, c := range w.Costs {
		sum += c
		x := float64(i) / float64(len(w.Costs))
		if x > 0.5 && x < 0.9 {
			region += c
		}
	}
	if float64(region) < 0.6*float64(sum) {
		t.Fatalf("hot region holds only %.1f%% of the work", 100*float64(region)/float64(sum))
	}
	// Unskewed tasks stay within the uniform jitter band.
	flat := Build(params(0))
	for i, c := range flat.Costs {
		if c < flat.P.MeanCost/2 || c > flat.P.MeanCost*3/2 {
			t.Fatalf("unskewed task %d cost %v outside jitter band", i, c)
		}
	}
}

func TestBothSchedulesComputeSameResult(t *testing.T) {
	w := Build(params(0.8))
	want := w.Checksum()
	sc, err := RunSplitC(machine.New(machine.SP1997(), w.P.Procs), w)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := RunCCXX(machine.New(machine.SP1997(), w.P.Procs), w, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]float64{"split-c": sc.Checksum, "cc++": cc.Checksum} {
		if math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Errorf("%s checksum %v, want %v", name, got, want)
		}
	}
}

func TestDynamicWinsUnderSkew(t *testing.T) {
	// The extension experiment's headline: with a skewed bag, the MPMD
	// dynamic schedule beats the SPMD static partition despite paying an
	// RMI round trip per batch.
	w := Build(params(0.9))
	sc, err := RunSplitC(machine.New(machine.SP1997(), w.P.Procs), w)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := RunCCXX(machine.New(machine.SP1997(), w.P.Procs), w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cc.Elapsed >= sc.Elapsed {
		t.Fatalf("dynamic (%v) not faster than static (%v) at skew 0.9", cc.Elapsed, sc.Elapsed)
	}
}

func TestStaticWinsWhenUniform(t *testing.T) {
	// And the flip side: with uniform tasks the static schedule's zero
	// scheduling traffic wins — MPMD's premium only pays off under
	// irregularity, which is exactly the paper's framing.
	w := Build(params(0))
	sc, err := RunSplitC(machine.New(machine.SP1997(), w.P.Procs), w)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := RunCCXX(machine.New(machine.SP1997(), w.P.Procs), w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Elapsed >= cc.Elapsed {
		t.Fatalf("static (%v) not faster than dynamic (%v) on uniform tasks", sc.Elapsed, cc.Elapsed)
	}
}

func TestBatchSizeTradeoff(t *testing.T) {
	// Larger batches amortize RMI cost but re-introduce imbalance; both
	// extremes must still compute correctly.
	w := Build(params(0.9))
	want := w.Checksum()
	var prev time.Duration
	for _, batch := range []int{1, 4, 16, 64} {
		cc, err := RunCCXX(machine.New(machine.SP1997(), w.P.Procs), w, batch)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(cc.Checksum-want) > 1e-9*math.Abs(want) {
			t.Fatalf("batch %d: wrong result", batch)
		}
		if cc.Elapsed <= 0 {
			t.Fatalf("batch %d: no time elapsed", batch)
		}
		prev = cc.Elapsed
	}
	_ = prev
}

// Property: checksums agree between schedules for random skews and seeds.
func TestSchedulesAgreeProperty(t *testing.T) {
	f := func(seed int64, skewRaw uint8) bool {
		p := Params{Tasks: 60, Procs: 4, MeanCost: 100 * time.Microsecond,
			Skew: float64(skewRaw%90) / 100, Seed: seed}
		w := Build(p)
		sc, err := RunSplitC(machine.New(machine.SP1997(), w.P.Procs), w)
		if err != nil {
			return false
		}
		cc, err := RunCCXX(machine.New(machine.SP1997(), w.P.Procs), w, 3)
		if err != nil {
			return false
		}
		want := w.Checksum()
		return math.Abs(sc.Checksum-want) <= 1e-9*math.Abs(want) &&
			math.Abs(cc.Checksum-want) <= 1e-9*math.Abs(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestLiveMatchesSerial runs the static schedule and the dynamic one at
// batch 1 and 4 on real goroutines (the live backend) and matches the serial
// reduction.
func TestLiveMatchesSerial(t *testing.T) {
	schedules := []struct {
		name string
		run  func(*machine.Machine, *Workload) (*appstat.Result, error)
	}{
		{"split-c/static", RunSplitC},
		{"cc++/dynamic batch 1", func(m *machine.Machine, w *Workload) (*appstat.Result, error) { return RunCCXX(m, w, 1) }},
		{"cc++/dynamic batch 4", func(m *machine.Machine, w *Workload) (*appstat.Result, error) { return RunCCXX(m, w, 4) }},
	}
	w := Build(params(0.8))
	want := w.Checksum()
	for _, sch := range schedules {
		m := machine.NewWithBackend(machine.SP1997(), w.P.Procs, live.New(w.P.Procs, live.Options{Watchdog: 20 * time.Second}))
		res, err := sch.run(m, w)
		if err != nil {
			t.Fatalf("%s: %v", sch.name, err)
		}
		if math.Abs(res.Checksum-want) > 1e-9*math.Abs(want) {
			t.Errorf("%s on live: checksum %v, want %v", sch.name, res.Checksum, want)
		}
	}
}
