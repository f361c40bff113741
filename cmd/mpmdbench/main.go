// Command mpmdbench regenerates the tables and figures of Chang et al.,
// "Evaluating the Performance Limitations of MPMD Communication" (SC 1997)
// on the calibrated IBM SP machine model, and prints the runtime's own
// observability report for one small machine on any of the three backends.
//
// Usage:
//
//	mpmdbench [-quick] [-json] [-backend=sim|live|net] [experiment ...]
//
// Experiments on the sim backend: table1, table4, fig5, fig6-water, fig6-lu,
// nexus, ablate, irregular, coll, stats, all (default). On -backend=live and
// -backend=net the one experiment is stats (named or not; any other name is
// a usage error): merged accounting counters, wall-clock latency percentiles
// and message-plane counters of four nodes doing null RMIs — on net two OS
// processes, the report assembled from both. Wall-clock performance is not
// measured here; that is benchmark/ (bash benchmark/run.sh).
//
// -json replaces the text tables with one machine-readable report on
// stdout (schema mpmdbench/v7; duration fields in nanoseconds):
//
//	mpmdbench -quick -json table4 > bench_table4.json
//
// Observability flags: -trace=FILE writes the stats experiment's machine as
// a Chrome trace-event JSON loadable in Perfetto; -cpuprofile/-memprofile
// write pprof profiles of the whole run. They are written on every exit
// path, a failed run included.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/bench"
	"repro/internal/trace"
	"repro/internal/transport/netlive"
)

// writeTrace exports tl as Chrome trace-event JSON (Perfetto-loadable).
func writeTrace(path string, tl *trace.Log) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := trace.WritePerfetto(f, tl); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// experiment is one named table, figure or report: run returns the row data
// (for the JSON report) and a text renderer, called only in text mode.
type experiment struct {
	name string
	run  func() (rows any, text func() string, err error)
}

func main() { os.Exit(run()) }

// run is the whole program and returns the exit status, so the deferred
// profile and trace writers run on every path out of it.
func run() int {
	quick := flag.Bool("quick", false, "run the reduced-size configuration")
	asJSON := flag.Bool("json", false, "emit one machine-readable JSON report on stdout instead of text tables")
	backend := flag.String("backend", "sim",
		"execution backend: sim (calibrated discrete-event model), live (real goroutines, wall-clock), or net (nodes sharded across OS processes); live and net run the stats report only")
	traceOut := flag.String("trace", "", "write the stats experiment's event trace to this file as Chrome trace-event JSON (open in https://ui.perfetto.dev)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (taken at exit) to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mpmdbench [-quick] [-json] [-backend=sim|live|net] [-trace=FILE] [table1|table4|fig5|fig6-water|fig6-lu|nexus|ablate|irregular|coll|stats|all ...]\n       (-backend=live and -backend=net: stats only)\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	scale := bench.Full()
	if *quick {
		scale = bench.Quick()
	}
	cfg := bench.Cfg()

	// A re-exec'd netlive worker runs with the parent's argument vector. It
	// serves its shard of the parent's stats machine and nothing else: the
	// report and every observability output (profiles, trace, debug server)
	// belong to the parent, or the worker would clobber its files and ports.
	if os.Getenv(netlive.EnvShard) != "" {
		if _, err := bench.RunStats(cfg, scale, *backend, nil); err != nil {
			fmt.Fprintf(os.Stderr, "mpmdbench: worker shard: %v\n", err)
			return 1
		}
		return 0
	}

	var tl *trace.Log
	if *traceOut != "" {
		tl = trace.New(0)
	}

	experiments := []experiment{
		{"table1", func() (any, func() string, error) {
			rows := bench.RunCodeSize()
			return rows, func() string { return bench.FormatCodeSize(rows) }, nil
		}},
		{"table4", func() (any, func() string, error) {
			rows := bench.RunMicro(cfg, scale)
			mpl := bench.MPLReferenceRTT(cfg, scale.MicroIters)
			return bench.MicroReport{Rows: rows, MPLReferenceRTT: mpl}, func() string { return bench.FormatMicro(rows, mpl) }, nil
		}},
		{"fig5", func() (any, func() string, error) {
			rows := bench.RunEM3D(cfg, scale)
			return rows, func() string { return bench.FormatEM3D(rows) }, nil
		}},
		{"fig6-water", func() (any, func() string, error) {
			rows := bench.RunWater(cfg, scale)
			return rows, func() string { return bench.FormatWater(rows) }, nil
		}},
		{"fig6-lu", func() (any, func() string, error) {
			row := bench.RunLU(cfg, scale)
			// Rows is an array for every experiment, even single-row ones.
			return []bench.LURow{row}, func() string { return bench.FormatLU(row) }, nil
		}},
		{"nexus", func() (any, func() string, error) {
			rows := bench.RunNexusCompare(cfg, scale)
			return rows, func() string { return bench.FormatNexus(rows) }, nil
		}},
		{"ablate", func() (any, func() string, error) {
			rows := bench.RunAblations(cfg, scale)
			return rows, func() string { return bench.FormatAblations(rows) }, nil
		}},
		{"irregular", func() (any, func() string, error) {
			rows := bench.RunIrregular(cfg, scale)
			return rows, func() string { return bench.FormatIrregular(rows) }, nil
		}},
		{"coll", func() (any, func() string, error) {
			rows := bench.RunCollBench(cfg, scale)
			return rows, func() string { return bench.FormatColl(rows) }, nil
		}},
		{"stats", func() (any, func() string, error) {
			rows, err := bench.RunStats(cfg, scale, *backend, tl)
			return rows, func() string { return bench.FormatStats(rows, *backend) }, err
		}},
	}
	switch *backend {
	case "sim":
	case "live", "net":
		// The tables are the simulator's; what a wall-clock backend has to
		// show here is the stats report.
		experiments = experiments[len(experiments)-1:]
	default:
		fmt.Fprintf(os.Stderr, "mpmdbench: unknown backend %q (want sim, live, or net)\n", *backend)
		return 2
	}
	want := map[string]bool{}
	for _, a := range flag.Args() {
		known := a == "all" && *backend == "sim"
		for _, e := range experiments {
			known = known || a == e.name
		}
		if !known {
			fmt.Fprintf(os.Stderr, "mpmdbench: no experiment %q on the %s backend\n", a, *backend)
			flag.Usage()
			return 2
		}
		want[a] = true
	}
	all := len(want) == 0 || want["all"]

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpmdbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "mpmdbench: cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mpmdbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "mpmdbench: memprofile: %v\n", err)
			}
		}()
	}
	if tl != nil {
		defer func() {
			if err := writeTrace(*traceOut, tl); err != nil {
				fmt.Fprintf(os.Stderr, "mpmdbench: trace: %v\n", err)
			}
		}()
	}

	report := bench.NewReport(*backend, cfg.Name, scale.Name)
	if !*asJSON {
		fmt.Printf("MPMD communication study reproduction — profile %q, scale %q\n\n", cfg.Name, scale.Name)
	}
	for _, e := range experiments {
		if !all && !want[e.name] {
			continue
		}
		start := time.Now()
		rows, text, err := e.run()
		elapsed := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpmdbench: %s: %v\n", e.name, err)
			return 1
		}
		if *asJSON {
			report.Add(e.name, elapsed, rows)
			continue
		}
		fmt.Print(text())
		fmt.Printf("[%s finished in %v]\n\n", e.name, elapsed.Round(time.Millisecond))
	}
	if *asJSON {
		b, err := report.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpmdbench: %v\n", err)
			return 1
		}
		os.Stdout.Write(b)
	}
	return 0
}
