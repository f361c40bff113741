package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
)

// runCompare prints, for every (judged metric, workload) pair of two result
// files, whether b is better, worse or within the metric's bound of a, using
// the bounds of BENCHMARK.json. Where the repetitions of either file spread
// wider than the bound the pair is unresolved, unless every repetition of b
// reads better than every repetition of a. Exit status 1 if any pair is worse
// or b failed more ops than a.
func runCompare(pathA, pathB string) int {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	a, err := readReport(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readReport(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return compareReports(spec, a, b)
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// judged lists what -compare gives a verdict on: every end-to-end metric of
// BENCHMARK.json, and the client's allocations per op. That one is a ROADMAP
// fixed point (0 on the warm null path) but cannot be an end-to-end metric of
// BENCHMARK.json, whose bounds are shares of a median that is 0 here.
func judged(spec *benchSpec) []metricDef {
	return append(slices.Clone(spec.EndToEnd), metricDef{Name: "driver.allocs_per_op", Unit: "count", Better: "lower", Bound: 0.05})
}

// absFloor is the absolute amount, in the metric's unit, by which a metric
// may worsen whatever its relative bound says: a metric may worsen by
// max(bound × a, floor). It keeps a baseline of 0 meaningful
// (allocs_per_op) and a 13 ms set-up from failing on a scheduler hiccup.
var absFloor = map[string]float64{
	"driver.allocs_per_op": 0.05,
	"setup_s":              0.05,
}

func compareReports(spec *benchSpec, a, b *report) int {
	for _, k := range []string{"num_cpu", "gomaxprocs", "go", "kernel", "reps", "window"} {
		if a.Env[k] != b.Env[k] {
			fmt.Printf("note: env %s differs: %q vs %q\n", k, a.Env[k], b.Env[k])
		}
	}
	fmt.Printf("commit %s seed %s  vs  commit %s seed %s\n", a.Env["commit"], a.Env["seed"], b.Env["commit"], b.Env["seed"])
	fmt.Printf("%-10s %-20s %12s %12s %12s %12s %12s  %s\n", "workload", "metric", "a", "b", "b worse by", "rep spread", "may worsen", "verdict")
	counts := map[string]int{}
	for _, wa := range a.Workloads {
		i := slices.IndexFunc(b.Workloads, func(w *wlReport) bool { return w.Workload == wa.Workload })
		if i < 0 {
			fmt.Printf("%-10s missing from the second file\n", wa.Workload)
			counts["worse"]++
			continue
		}
		wb := b.Workloads[i]
		for _, def := range judged(spec) {
			va, oka := wa.Metrics[def.Name]
			vb, okb := wb.Metrics[def.Name]
			if !oka || !okb {
				fmt.Printf("%-10s %-20s not in both files (a per-layer metric needs a traced run)\n", wa.Workload, def.Name)
				counts["unresolved"]++
				continue
			}
			worse := vb.Value - va.Value // in the metric's unit
			if def.Better == "higher" {
				worse = -worse
			}
			allowed := max(def.Bound*math.Abs(va.Value), absFloor[def.Name])
			spread := max(iqr(va.Reps), iqr(vb.Reps))
			v := verdict(worse, spread, allowed, separated(va.Reps, vb.Reps, def.Better))
			counts[v]++
			fmt.Printf("%-10s %-20s %12.4f %12.4f %+12.4f %12.4f %12.4f  %s\n", wa.Workload, def.Name,
				va.Value, vb.Value, worse, spread, allowed, v)
		}
		if wb.Failed > wa.Failed {
			counts["worse"]++
			fmt.Printf("%-10s %-20s %12d %12d  worse\n", wa.Workload, "ops_failed", wa.Failed, wb.Failed)
		}
	}
	fmt.Printf("better %d, worse %d, within-bound %d, unresolved %d\n",
		counts["better"], counts["worse"], counts["within-bound"], counts["unresolved"])
	if counts["worse"] > 0 {
		return 1
	}
	return 0
}

// verdict classifies one pair. worse is the amount by which b is worse than a
// (negative when it is better), spread the wider interquartile distance of
// the two files' repetitions and allowed the amount the metric may worsen,
// all in the metric's unit.
func verdict(worse, spread, allowed float64, allBetter bool) string {
	switch {
	case worse > allowed:
		return "worse"
	case spread > allowed && !allBetter:
		return "unresolved"
	case worse < -allowed:
		return "better"
	}
	return "within-bound"
}

// separated reports whether every repetition of b reads better than every
// repetition of a.
func separated(a, b []float64, better string) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	if better == "higher" {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}

// iqr is the distance between the first and third quartile of v, with the
// quartiles Python's statistics.quantiles(v, n=4) gives (the driver's spread
// measure); 0 for fewer than two values.
func iqr(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	q := func(k int) float64 { // statistics.quantiles' default (exclusive) method
		j := max(1, min(k*(n+1)/4, n-1))
		delta := float64(k*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(3) - q(1)
}
