package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// childEnv marks a process the test started as a repetition: the driver
// re-execs os.Executable(), which under go test is the test binary.
const childEnv = "MPMD_BENCHMARK_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestSuiteSmoke runs every workload with 50 ms windows and one repetition,
// then the traced pass, and checks what the benchmark emits.
func TestSuiteSmoke(t *testing.T) {
	t.Chdir("..") // the benchmark runs from the repository root
	t.Setenv(childEnv, "1")
	const seed = 424242 // keeps this run's trace files apart from real ones
	traces := filepath.Join(traceDir, "*-seed424242.trace.json")
	cleanup := func() {
		old, _ := filepath.Glob(traces)
		for _, f := range old {
			os.Remove(f)
		}
	}
	cleanup()
	defer cleanup()

	out := filepath.Join(t.TempDir(), "result.json")
	d := &driver{seed: seed, reps: 1, seconds: 0.05} // one 50 ms window
	if err := d.run("", out); err != nil {
		t.Fatal(err)
	}
	rep, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}

	// (b) Workload and metric names are exactly BENCHMARK.json's.
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var want []string
	for _, def := range append(slices.Clone(d.spec.EndToEnd), d.spec.PerLayer...) {
		want = append(want, def.Name)
	}
	slices.Sort(want)
	if len(rep.Workloads) != len(d.spec.Workloads) {
		t.Fatalf("ran %d workloads, BENCHMARK.json lists %d", len(rep.Workloads), len(d.spec.Workloads))
	}
	for i, w := range rep.Workloads {
		if w.Workload != d.spec.Workloads[i].Name || !nameRE.MatchString(w.Workload) {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, w.Workload, d.spec.Workloads[i].Name)
		}
		var got []string
		for name := range w.Metrics {
			got = append(got, name)
			if !nameRE.MatchString(name) {
				t.Errorf("%s: metric name %q", w.Workload, name)
			}
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s: emitted metrics %v, BENCHMARK.json lists %v", w.Workload, got, want)
		}
		// (a) Zero failed ops, and the net workloads really used the rings.
		if w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed", w.Workload, w.Failed, w.Attempted)
		}
		if wantT := map[bool]string{true: "inproc", false: "shm"}[workloads[w.Workload].shards == 1]; w.Transport != wantT {
			t.Errorf("%s: transport %q, want %q", w.Workload, w.Transport, wantT)
		}
		for _, def := range d.spec.EndToEnd {
			if v := w.Metrics[def.Name].Value; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must be a positive number", w.Workload, def.Name, v)
			}
		}
		// The three legs partition the traced op.
		if w.Workload == "live_null" || w.Workload == "net_null" {
			m := w.Metrics
			sum := m["core.request_leg_us"].Value + m["core.handler_us"].Value + m["core.reply_leg_us"].Value
			if mean := m["core.traced_op_mean_us"].Value; mean <= 0 || math.Abs(sum-mean) > 0.1*mean {
				t.Errorf("%s: legs sum to %v us, traced op mean is %v us", w.Workload, sum, mean)
			}
		}
	}

	// (c) benchmark/out holds one trace file per workload from this run and
	// nothing else of its seed: re-exec'd netlive workers wrote none. (Their
	// stdout is checked by the driver itself: a repetition's output must
	// parse as exactly one JSON document.)
	files, _ := filepath.Glob(traces)
	if len(files) != len(rep.Workloads) {
		t.Errorf("trace files %v, want one per workload", files)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &tr); err != nil || len(tr.TraceEvents) == 0 {
			t.Errorf("%s: %d events, err %v", f, len(tr.TraceEvents), err)
		}
	}

	// -compare of a file with itself: nothing is worse.
	if code := compareReports(d.spec, rep, rep); code != 0 {
		t.Errorf("comparing a result with itself exited %d", code)
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		worse, spread, allowed float64
		allBetter              bool
		want                   string
	}{
		{0.2, 0.01, 0.1, false, "worse"},
		{0.2, 0.5, 0.1, false, "worse"},
		{0.05, 0.01, 0.1, false, "within-bound"},
		{0.05, 0.3, 0.1, false, "unresolved"},
		{-0.2, 0.01, 0.1, false, "better"},
		{-0.2, 0.3, 0.1, false, "unresolved"},
		{-0.2, 0.3, 0.1, true, "better"},
	} {
		if got := verdict(c.worse, c.spread, c.allowed, c.allBetter); got != c.want {
			t.Errorf("verdict(%v, %v, %v, %v) = %q, want %q", c.worse, c.spread, c.allowed, c.allBetter, got, c.want)
		}
	}
	// statistics.quantiles([1,2,3,4,10], n=4) = [1.5, 3.0, 7.0], and of
	// [1, 2] = [0.75, 1.5, 2.25] (the clamped case).
	if got := iqr([]float64{10, 1, 3, 2, 4}); math.Abs(got-5.5) > 1e-12 {
		t.Errorf("iqr = %v, want 5.5", got)
	}
	if got := iqr([]float64{2, 1}); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("iqr = %v, want 1.5", got)
	}
}

// TestCompareZeroBaseline: a metric that is 0 in the first file (the warm
// null path allocates nothing) is judged by its absolute floor, not divided by.
func TestCompareZeroBaseline(t *testing.T) {
	spec := &benchSpec{}
	file := func(allocs float64) *report {
		return &report{Workloads: []*wlReport{{Workload: "live_null", Metrics: map[string]metricValue{
			"driver.allocs_per_op": {Value: allocs, Reps: []float64{allocs, allocs, allocs}},
		}}}}
	}
	if code := compareReports(spec, file(0), file(0.01)); code != 0 {
		t.Errorf("0 -> 0.01 allocs/op exited %d, want within the 0.05 floor", code)
	}
	if code := compareReports(spec, file(0), file(1)); code != 1 {
		t.Errorf("0 -> 1 allocs/op exited %d, want 1 (worse)", code)
	}
}
