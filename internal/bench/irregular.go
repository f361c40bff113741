package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/apps/taskfarm"
	"repro/internal/machine"
)

// IrregularRow compares static SPMD and dynamic MPMD scheduling of one
// skewed task bag.
type IrregularRow struct {
	Skew    float64       `json:"skew"`
	Static  time.Duration `json:"static"`
	Dynamic time.Duration `json:"dynamic"`
	Speedup float64       `json:"speedup"` // static/dynamic; > 1 means MPMD wins
}

// RunIrregular is the extension experiment behind the paper's introduction:
// a sweep over workload skew showing where the MPMD model's dynamic
// scheduling overtakes the SPMD static partition despite paying an RMI per
// task batch (and despite dedicating a node to the master). See package
// taskfarm for the model.
func RunIrregular(cfg machine.Config, sc Scale) []IrregularRow {
	tasks := 200
	if sc.Name == "quick" {
		tasks = 80
	}
	var rows []IrregularRow
	for _, skew := range []float64{0, 0.2, 0.4, 0.6, 0.8, 0.9} {
		w := taskfarm.Build(taskfarm.Params{
			Tasks: tasks, Procs: 4, MeanCost: 200 * time.Microsecond,
			Skew: skew, Seed: 9,
		})
		st, err := taskfarm.RunSplitC(machine.New(cfg, w.P.Procs), w)
		if err != nil {
			panic(err)
		}
		dy, err := taskfarm.RunCCXX(machine.New(cfg, w.P.Procs), w, 4)
		if err != nil {
			panic(err)
		}
		rows = append(rows, IrregularRow{
			Skew:    skew,
			Static:  st.Elapsed,
			Dynamic: dy.Elapsed,
			Speedup: float64(st.Elapsed) / float64(dy.Elapsed),
		})
	}
	return rows
}

// FormatIrregular renders the sweep.
func FormatIrregular(rows []IrregularRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: irregular workload — static SPMD partition vs dynamic MPMD task farm\n")
	fmt.Fprintf(&b, "(4 nodes; the MPMD side dedicates one node to the master and pays an RMI per batch)\n")
	fmt.Fprintf(&b, "%6s | %12s %12s | %8s\n", "skew", "static SPMD", "dynamic MPMD", "speedup")
	for _, r := range rows {
		marker := ""
		if r.Speedup > 1 {
			marker = "  <- MPMD wins"
		}
		fmt.Fprintf(&b, "%6.2f | %12v %12v | %7.2fx%s\n", r.Skew, r.Static, r.Dynamic, r.Speedup, marker)
	}
	fmt.Fprintf(&b, "The crossover quantifies the paper's qualitative claim that MPMD suits\n")
	fmt.Fprintf(&b, "irregular computation despite its communication premium (§1).\n")
	return b.String()
}
