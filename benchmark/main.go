// Command benchmark is the repository's wall-clock benchmark: five workloads
// on the live and netlive backends, driven through the public typed API, with
// every result checked. See README.md.
//
//	bash benchmark/run.sh --workload live_null --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -seed 1 -out a.json        # every workload, then the traced pass
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: every workload, untraced then traced)")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 0, "measured time per workload, split evenly over its repetitions (default: run_seconds of BENCHMARK.json)")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: also the traced repetition and layer loops, report the per-layer metrics")
		out     = flag.String("out", "", "also write the results as JSON to this file (the input of -compare)")
		compare = flag.Bool("compare", false, "compare two result files: benchmark -compare a.json b.json")

		// Set by the driver when it starts a child of itself. A re-exec'd
		// netlive worker inherits the argument vector, and so the same spec.
		rep = flag.String("rep", "", "internal: run the one repetition this JSON repSpec describes and report it on stdout")
	)
	flag.Parse()

	switch {
	case *rep != "":
		var spec repSpec
		if err := json.Unmarshal([]byte(*rep), &spec); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: -rep:", err)
			os.Exit(2)
		}
		os.Exit(runRep(spec))
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	}
	d := &driver{seed: *seed, reps: reps, seconds: *seconds, traced: *traced != 0}
	if err := d.run(*name, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
