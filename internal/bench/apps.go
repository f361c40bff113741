package bench

import (
	"fmt"
	"strings"

	"repro/internal/apps/appstat"
	"repro/internal/apps/em3d"
	"repro/internal/apps/lu"
	"repro/internal/apps/water"
	"repro/internal/core"
	"repro/internal/machine"
)

// EM3DRow is one bar pair of Figure 5: a (variant, remote%) cell with both
// language versions.
type EM3DRow struct {
	Variant   em3d.Variant    `json:"variant"`
	RemotePct int             `json:"remote_pct"`
	SC        *appstat.Result `json:"sc"`
	CC        *appstat.Result `json:"cc"`
}

// RemotePcts are the paper's remote-edge fractions.
var RemotePcts = []int{10, 40, 70, 100}

// RunEM3D reproduces Figure 5.
func RunEM3D(cfg machine.Config, sc Scale) []EM3DRow {
	var rows []EM3DRow
	for _, variant := range em3d.Variants() {
		for _, pct := range RemotePcts {
			p := em3d.Params{
				GraphNodes: sc.EM3DNodes, Degree: sc.EM3DDegree, Procs: 4,
				RemotePct: pct, Iters: sc.EM3DIters, Seed: 1,
			}
			base := em3d.Build(p)
			scRes, err := em3d.RunSplitC(machine.New(cfg, p.Procs), base.Clone(), variant)
			if err != nil {
				panic(err)
			}
			ccRes, err := em3d.RunCCXX(machine.New(cfg, p.Procs), base.Clone(), variant, core.Options{})
			if err != nil {
				panic(err)
			}
			rows = append(rows, EM3DRow{Variant: variant, RemotePct: pct, SC: scRes, CC: ccRes})
		}
	}
	return rows
}

// FormatEM3D renders Figure 5: per-edge times and the component breakdown of
// each CC++ bar normalized against its Split-C partner.
func FormatEM3D(rows []EM3DRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: EM3D per-edge execution time, normalized against Split-C\n")
	fmt.Fprintf(&b, "%-7s %5s | %10s %10s %6s | breakdown of CC++ bar (fractions of Split-C total)\n",
		"variant", "rem%", "sc/edge", "cc/edge", "ratio")
	for _, r := range rows {
		ratio := r.CC.Ratio(r.SC)
		fmt.Fprintf(&b, "%-7s %5d | %10v %10v %6.2f | %s\n",
			r.Variant, r.RemotePct, r.SC.PerUnit, r.CC.PerUnit, ratio, r.CC.BreakdownRow(r.SC))
	}
	fmt.Fprintf(&b, "paper at 100%% remote: base→%.1fx  ghost→%.1fx  bulk→%.1fx\n",
		paperEM3DRatio["base"], paperEM3DRatio["ghost"], paperEM3DRatio["bulk"])
	return b.String()
}

// WaterRow is one bar pair of Figure 6's Water groups.
type WaterRow struct {
	Variant water.Variant   `json:"variant"`
	N       int             `json:"n"`
	SC      *appstat.Result `json:"sc"`
	CC      *appstat.Result `json:"cc"`
}

// RunWater reproduces the Water half of Figure 6.
func RunWater(cfg machine.Config, sc Scale) []WaterRow {
	var rows []WaterRow
	for _, variant := range water.Variants() {
		for _, n := range sc.WaterSizes {
			p := water.Params{N: n, Procs: 4, Steps: sc.WaterSteps, Seed: 3}
			base := water.Build(p)
			scRes, err := water.RunSplitC(machine.New(cfg, p.Procs), base.Clone(), variant)
			if err != nil {
				panic(err)
			}
			ccRes, err := water.RunCCXX(machine.New(cfg, p.Procs), base.Clone(), variant, core.Options{})
			if err != nil {
				panic(err)
			}
			rows = append(rows, WaterRow{Variant: variant, N: n, SC: scRes, CC: ccRes})
		}
	}
	return rows
}

// FormatWater renders the Water half of Figure 6.
func FormatWater(rows []WaterRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 (Water): execution time, normalized against Split-C\n")
	fmt.Fprintf(&b, "%-9s %5s | %12s %12s %6s %8s | breakdown of CC++ bar\n",
		"variant", "N", "sc", "cc", "ratio", "paper")
	for _, r := range rows {
		key := fmt.Sprintf("%s/%d", r.Variant, r.N)
		paper := "-"
		if v, ok := paperWaterGap[key]; ok {
			paper = fmt.Sprintf("%.1fx", v)
		}
		fmt.Fprintf(&b, "%-9s %5d | %12v %12v %6.2f %8s | %s\n",
			r.Variant, r.N, r.SC.Elapsed, r.CC.Elapsed, r.CC.Ratio(r.SC), paper, r.CC.BreakdownRow(r.SC))
	}
	return b.String()
}

// LURow is the LU bar pair of Figure 6.
type LURow struct {
	N  int             `json:"n"`
	B  int             `json:"b"`
	SC *appstat.Result `json:"sc"`
	CC *appstat.Result `json:"cc"`
}

// RunLU reproduces the LU half of Figure 6.
func RunLU(cfg machine.Config, sc Scale) LURow {
	p := lu.Params{N: sc.LUN, B: sc.LUB, Procs: 4, Seed: 5}
	base := lu.Build(p)
	scRes, err := lu.RunSplitC(machine.New(cfg, p.Procs), base.Clone())
	if err != nil {
		panic(err)
	}
	ccRes, err := lu.RunCCXX(machine.New(cfg, p.Procs), base.Clone(), core.Options{})
	if err != nil {
		panic(err)
	}
	return LURow{N: p.N, B: p.B, SC: scRes, CC: ccRes}
}

// FormatLU renders the LU half of Figure 6.
func FormatLU(r LURow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 (LU %dx%d, %dx%d blocks): execution time, normalized against Split-C\n",
		r.N, r.N, r.B, r.B)
	fmt.Fprintf(&b, "sc-lu %v  cc-lu %v  ratio %.2f (paper: %.1fx)\n",
		r.SC.Elapsed, r.CC.Elapsed, r.CC.Ratio(r.SC), paperLUGap)
	fmt.Fprintf(&b, "cc-lu breakdown: %s\n", r.CC.BreakdownRow(r.SC))
	return b.String()
}
