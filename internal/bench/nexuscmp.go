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

// NexusRow compares one application under CC++/ThAM vs CC++/Nexus.
type NexusRow struct {
	App          string          `json:"app"`
	ThAM         *appstat.Result `json:"tham"`
	Nexus        *appstat.Result `json:"nexus"`
	PaperSpeedup string          `json:"paper_speedup"`
}

// RunNexusCompare reproduces §6's "Comparison with CC++/Nexus": the same
// CC++ applications under both message-layer cost profiles. Sizes follow the scale but stay on
// the small side — the point is the order-of-magnitude ratio, which is
// insensitive to size in the communication-bound programs.
func RunNexusCompare(cfg machine.Config, sc Scale) []NexusRow {
	var rows []NexusRow

	em3dP := em3d.Params{
		GraphNodes: sc.EM3DNodes / 2, Degree: sc.EM3DDegree, Procs: 4,
		RemotePct: 100, Iters: 2, Seed: 1,
	}
	for _, variant := range em3d.Variants() {
		base := em3d.Build(em3dP)
		th, err := em3d.RunCCXX(machine.New(cfg, em3dP.Procs), base.Clone(), variant, core.Options{})
		if err != nil {
			panic(err)
		}
		nx, err := em3d.RunCCXX(machine.New(cfg, em3dP.Procs), base.Clone(), variant, core.Options{Nexus: true})
		if err != nil {
			panic(err)
		}
		name := "em3d-" + string(variant)
		rows = append(rows, NexusRow{App: name, ThAM: th, Nexus: nx, PaperSpeedup: paperNexus[name]})
	}

	waterP := water.Params{N: sc.NexusWaterSize, Procs: 4, Steps: 1, Seed: 3}
	for _, variant := range water.Variants() {
		base := water.Build(waterP)
		th, err := water.RunCCXX(machine.New(cfg, waterP.Procs), base.Clone(), variant, core.Options{})
		if err != nil {
			panic(err)
		}
		nx, err := water.RunCCXX(machine.New(cfg, waterP.Procs), base.Clone(), variant, core.Options{Nexus: true})
		if err != nil {
			panic(err)
		}
		rows = append(rows, NexusRow{App: "water-" + string(variant), ThAM: th, Nexus: nx,
			PaperSpeedup: paperNexus["water"]})
	}

	luP := lu.Params{N: sc.LUN / 2, B: sc.LUB, Procs: 4, Seed: 5}
	if luP.N < 2*luP.B {
		luP.N = 2 * luP.B
	}
	{
		base := lu.Build(luP)
		th, err := lu.RunCCXX(machine.New(cfg, luP.Procs), base.Clone(), core.Options{})
		if err != nil {
			panic(err)
		}
		nx, err := lu.RunCCXX(machine.New(cfg, luP.Procs), base.Clone(), core.Options{Nexus: true})
		if err != nil {
			panic(err)
		}
		rows = append(rows, NexusRow{App: "lu", ThAM: th, Nexus: nx, PaperSpeedup: paperNexus["lu"]})
	}
	return rows
}

// FormatNexus renders the comparison table.
func FormatNexus(rows []NexusRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "§6 comparison: CC++/ThAM vs CC++/Nexus (speedup of ThAM)\n")
	fmt.Fprintf(&b, "%-16s | %12s %12s | %8s | %s\n", "app", "ThAM", "Nexus", "speedup", "paper")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s | %12v %12v | %7.1fx | %s\n",
			r.App, r.ThAM.Elapsed, r.Nexus.Elapsed,
			float64(r.Nexus.Elapsed)/float64(r.ThAM.Elapsed), r.PaperSpeedup)
	}
	return b.String()
}
