// Command mpmdvet statically enforces the runtime's hand-shaken invariants
// that nothing else in the build catches: wire.Buf ownership flow (bufown),
// allocation-free //mpmd:hotpath functions (hotpath), lock-guarded fields
// (lockguard), a cycle-free lock acquisition order (lockorder), and no
// blocking under a //mpmd:cpu mutex (blockhold). The last three read one
// lockset walk (internal/analysis/passes/locks).
//
// The allocation, blocking, lock-effect, and buffer-ownership checks are
// whole-program: a call-graph summary layer (internal/analysis/callgraph)
// propagates facts bottom-up over SCCs, through method values and
// CHA-bounded interface calls, and violations print the witness chain to the
// leaf operation. //mpmd:coldpath marks a function as allocating by design
// and cuts the chain there.
//
// One mode, whole-tree (CI runs it under GOOS=linux and GOOS=darwin):
//
//	go run ./cmd/mpmdvet ./...
//
// It prints diagnostics plus a one-line summary counting
// //mpmdvet:ignore suppressions per pass; -summary=<file> also writes the
// machine-readable JSON CI uploads, and
// -baseline=<file> ratchets the suppression ledger: every pragma needs a
// reason, and the per-pass counts must match the committed baseline exactly.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/analysis/suite"
)

func main() {
	analyzers := suite.Analyzers()
	summaryPath := flag.String("summary", "", "write a JSON run summary to this file")
	baselinePath := flag.String("baseline", "", "check suppressions against this committed baseline file")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: mpmdvet [-summary=file.json] [-baseline=file.json] [package patterns]\n\npasses:\n")
		for _, a := range analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-10s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpmdvet:", err)
		os.Exit(1)
	}
	sum, clean, err := analysis.Run(os.Stdout, dir, analyzers, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpmdvet:", err)
		os.Exit(1)
	}
	fmt.Println(sum.Line())
	if *summaryPath != "" {
		if err := analysis.WriteSummary(*summaryPath, sum); err != nil {
			fmt.Fprintln(os.Stderr, "mpmdvet: writing summary:", err)
			os.Exit(1)
		}
	}
	if *baselinePath != "" {
		// A relative baseline path resolves against the module root, not the
		// cwd, so `mpmdvet -baseline=mpmdvet_baseline.json` works from any
		// directory inside the module.
		path := *baselinePath
		if !filepath.IsAbs(path) {
			root, err := analysis.ModuleRoot(dir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mpmdvet:", err)
				os.Exit(1)
			}
			path = filepath.Join(root, path)
		}
		base, err := analysis.LoadBaseline(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpmdvet:", err)
			os.Exit(1)
		}
		if drift := sum.DiffBaseline(base); len(drift) > 0 {
			for _, msg := range drift {
				fmt.Fprintln(os.Stderr, "mpmdvet:", msg)
			}
			clean = false
		}
	}
	if !clean {
		os.Exit(2)
	}
}
