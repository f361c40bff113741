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
// One mode, whole-tree, no flags (CI runs it under GOOS=linux and
// GOOS=darwin):
//
//	go run ./cmd/mpmdvet ./...
//
// It prints the diagnostics and a one-line summary counting //mpmdvet:ignore
// suppressions, and exits 2 if there was any diagnostic. The suppression
// ledger itself — every pragma has a reason, the per-pass counts match the
// pinned table — is held by suite.TestTreeClean inside `go test ./...`.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/suite"
)

func main() {
	analyzers := suite.Analyzers()
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: mpmdvet [package patterns]\n\npasses:\n")
		for _, a := range analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-10s %s\n", a.Name, a.Doc)
		}
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
	if !clean {
		os.Exit(2)
	}
}
