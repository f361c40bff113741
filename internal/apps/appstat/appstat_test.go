package appstat

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
)

func snap(cpu, net, rt time.Duration) machine.Snapshot {
	var s machine.Snapshot
	s.Buckets[machine.CatCPU] = cpu
	s.Buckets[machine.CatNet] = net
	s.Buckets[machine.CatRuntime] = rt
	return s
}

// TestMeasureAndComponents measures a region of a 2-node simulator machine
// whose nodes are charged known amounts inside it and outside it.
func TestMeasureAndComponents(t *testing.T) {
	m := machine.New(machine.SP1997(), 2)
	a0, a1 := m.Nodes()[0].Acct, m.Nodes()[1].Acct
	a0.Add(machine.CatCPU, 7*time.Microsecond) // before the region
	a1.Count(machine.CntRMI, 4)

	r := &Result{Lang: "cc++", Variant: "x", Work: 100}
	r.Start(m, 100*time.Microsecond)
	a0.Add(machine.CatCPU, 10*time.Microsecond)
	a0.Add(machine.CatNet, 5*time.Microsecond)
	a1.Add(machine.CatCPU, 20*time.Microsecond)
	a1.Add(machine.CatNet, 5*time.Microsecond)
	a1.Add(machine.CatRuntime, 10*time.Microsecond)
	a1.Count(machine.CntRMI, 3)
	r.Stop(200 * time.Microsecond)
	a1.Add(machine.CatThreadSync, 9*time.Microsecond) // after the region

	if r.Elapsed != 100*time.Microsecond || r.Procs != 2 {
		t.Fatalf("elapsed %v procs %d", r.Elapsed, r.Procs)
	}
	if r.PerUnit != time.Microsecond {
		t.Fatalf("per unit %v", r.PerUnit)
	}
	want := map[machine.Category]time.Duration{
		machine.CatCPU: 30 * time.Microsecond, machine.CatNet: 10 * time.Microsecond,
		machine.CatRuntime: 10 * time.Microsecond,
	}
	for _, c := range machine.Categories() {
		if got := r.Busy.Get(c); got != want[c] {
			t.Errorf("busy %s = %v, want %v", c, got, want[c])
		}
	}
	if got := r.Busy.Counters[machine.CntRMI]; got != 3 {
		t.Errorf("RMIs in the region = %d, want 3", got)
	}
	// Total processor-time 200µs; busy 50µs; wait 150µs lands in net.
	if got := r.Wait(); got != 150*time.Microsecond {
		t.Fatalf("wait %v", got)
	}
	if got := r.Component(machine.CatNet); got != 160*time.Microsecond {
		t.Fatalf("net component %v", got)
	}
	if got := r.Component(machine.CatCPU); got != 30*time.Microsecond {
		t.Fatalf("cpu component %v", got)
	}
	// Fractions sum to 1.
	sum := 0.0
	for _, c := range machine.Categories() {
		sum += r.Fraction(c)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("fractions sum to %v", sum)
	}
}

func TestRatioAndName(t *testing.T) {
	a := &Result{Lang: "split-c", Variant: "v", Elapsed: 50 * time.Microsecond, Procs: 4}
	b := &Result{Lang: "cc++", Variant: "v", Elapsed: 125 * time.Microsecond, Procs: 4}
	if got := b.Ratio(a); got != 2.5 {
		t.Fatalf("ratio %v", got)
	}
	if a.Name() != "split-c/v" {
		t.Fatalf("name %q", a.Name())
	}
}

func TestBreakdownRowNormalizesAgainstBaseline(t *testing.T) {
	base := &Result{Elapsed: 100 * time.Microsecond, Procs: 2}
	base.Busy = machine.MergeSnapshots(snap(50*time.Microsecond, 0, 0))
	r := &Result{Elapsed: 200 * time.Microsecond, Procs: 2}
	r.Busy = machine.MergeSnapshots(snap(50*time.Microsecond, 0, 50*time.Microsecond))
	row := r.BreakdownRow(base)
	if !strings.Contains(row, "total=2.000") {
		t.Fatalf("row %q missing 2x total", row)
	}
	if !strings.Contains(row, "runtime=0.250") {
		t.Fatalf("row %q missing runtime fraction", row)
	}
}
