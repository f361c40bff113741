// Package appstat holds the measurement plumbing shared by the four
// application reproductions (EM3D, Water, LU and the task farm): per-run
// results with the paper's five-way time breakdown (net / cpu / thread mgmt /
// thread sync / runtime), and the measured region they are computed over.
package appstat

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/machine"
)

// Result is one application run's measurement.
type Result struct {
	// Lang is "split-c" or "cc++"; Variant names the program version.
	Lang    string `json:"lang"`
	Variant string `json:"variant"`
	// Transport is the message layer ("ThAM", "Nexus", or "" for Split-C).
	Transport string `json:"transport,omitempty"`
	// Elapsed is the virtual wall-clock time of the measured region.
	Elapsed time.Duration `json:"elapsed"`
	// Procs is the number of processors.
	Procs int `json:"procs"`
	// Work is the denominator for per-unit reporting (edges×iters for EM3D,
	// etc.); PerUnit is Elapsed/Work when Work > 0.
	Work    int64         `json:"work"`
	PerUnit time.Duration `json:"per_unit"`
	// Busy is the per-category virtual time summed over all processors
	// within the measured region.
	Busy machine.Snapshot `json:"busy"`
	// Checksum cross-validates numeric output between language versions.
	Checksum float64 `json:"checksum"`

	region Region
}

// Region is a measured region of a machine: the time it began and every
// node's accounting at that instant.
type Region struct {
	Begin time.Duration
	m     *machine.Machine
	snaps []machine.Snapshot
}

// Open begins a region on m at time now.
func Open(m *machine.Machine, now time.Duration) Region {
	rg := Region{Begin: now, m: m}
	for _, n := range m.Nodes() {
		rg.snaps = append(rg.snaps, n.Acct.Snapshot())
	}
	return rg
}

// Deltas returns each node's accounting since the region began, in node
// order.
func (rg Region) Deltas() []machine.Snapshot {
	ds := make([]machine.Snapshot, len(rg.snaps))
	for i, n := range rg.m.Nodes() {
		ds[i] = n.Acct.Delta(rg.snaps[i])
	}
	return ds
}

// Start begins the run's measured region on m at time now. One thread calls
// it between two barriers, so every node enters the region together.
func (r *Result) Start(m *machine.Machine, now time.Duration) { r.region = Open(m, now) }

// Stop ends the measured region at time now and fills the timing fields:
// the elapsed time and every node's accounting since Start.
func (r *Result) Stop(now time.Duration) {
	deltas := r.region.Deltas()
	r.Elapsed = now - r.region.Begin
	r.Procs = len(deltas)
	r.Busy = machine.MergeSnapshots(deltas...)
	if r.Work > 0 {
		r.PerUnit = time.Duration(int64(r.Elapsed) / r.Work)
	}
}

// Wait returns the time processors spent neither computing nor in any
// accounted category — idle/blocked-on-network time. Added to CatNet it
// forms the "net" bar of the paper's figures.
func (r *Result) Wait() time.Duration {
	total := time.Duration(r.Procs) * r.Elapsed
	return total - r.Busy.Busy()
}

// Component returns a category's share of total processor-time, with CatNet
// including wait time (the paper's "net" bar covers time in and waiting on
// the message layer).
func (r *Result) Component(c machine.Category) time.Duration {
	d := r.Busy.Get(c)
	if c == machine.CatNet {
		d += r.Wait()
	}
	return d
}

// Fraction returns a component as a fraction of total processor-time.
func (r *Result) Fraction(c machine.Category) float64 {
	total := time.Duration(r.Procs) * r.Elapsed
	if total == 0 {
		return 0
	}
	return float64(r.Component(c)) / float64(total)
}

// Ratio returns this run's elapsed time relative to a baseline run.
func (r *Result) Ratio(base *Result) float64 {
	if base.Elapsed == 0 {
		return 0
	}
	return float64(r.Elapsed) / float64(base.Elapsed)
}

// Name formats "lang/variant".
func (r *Result) Name() string { return r.Lang + "/" + r.Variant }

// BreakdownRow renders the five normalized components against a baseline's
// elapsed time, matching the stacked bars of Figures 5 and 6: each bar
// element is this run's component scaled so that the baseline's total is 1.
func (r *Result) BreakdownRow(base *Result) string {
	var b strings.Builder
	denom := float64(base.Procs) * float64(base.Elapsed)
	for _, c := range machine.Categories() {
		fmt.Fprintf(&b, "%s=%.3f ", c, float64(r.Component(c))/denom)
	}
	fmt.Fprintf(&b, "total=%.3f", float64(r.Procs)*float64(r.Elapsed)/denom)
	return b.String()
}
