package analysis

import (
	"fmt"
	"io"
	"sort"
)

// Summary is the result of one whole-tree mpmdvet run.
type Summary struct {
	Packages    int
	Diagnostics int
	ByPass      map[string]int
	Suppressed  []Suppression

	// SuppressedByPass counts the pragma suppressions per pass — the ledger
	// suite.TestTreeClean holds against its pinned table.
	SuppressedByPass map[string]int
}

// Line renders the one-line human summary the driver prints after a run.
func (s *Summary) Line() string {
	passes := make([]string, 0, len(s.ByPass))
	for p := range s.ByPass {
		passes = append(passes, p)
	}
	sort.Strings(passes)
	line := fmt.Sprintf("mpmdvet: %d packages, %d diagnostics, %d suppressed by pragma",
		s.Packages, s.Diagnostics, len(s.Suppressed))
	for _, p := range passes {
		line += fmt.Sprintf(" [%s:%d]", p, s.ByPass[p])
	}
	return line
}

// Run is the standalone driver: load every package matched by patterns in
// the module at dir (test files included, mirroring `go vet`), apply the
// analyzers, honor //mpmdvet:ignore pragmas, and print surviving diagnostics
// to w. It returns the summary and whether the tree is clean.
func Run(w io.Writer, dir string, analyzers []*Analyzer, patterns ...string) (*Summary, bool, error) {
	pkgs, err := LoadPackages(dir, true, patterns...)
	if err != nil {
		return nil, false, err
	}
	return Analyze(w, pkgs, analyzers)
}

// Analyze is Run on packages already loaded, as one program.
func Analyze(w io.Writer, pkgs []*Package, analyzers []*Analyzer) (*Summary, bool, error) {
	prog := NewProgram(pkgs)
	sum := &Summary{ByPass: map[string]int{}, SuppressedByPass: map[string]int{}}
	clean := true
	for _, pkg := range pkgs {
		sum.Packages++
		diags, err := RunAnalyzers(prog, pkg, analyzers)
		if err != nil {
			return nil, false, err
		}
		ignores, malformed := CollectIgnores(pkg.Fset, pkg.Files)
		kept, suppressed := ignores.Filter(diags)
		kept = append(kept, malformed...)
		kept = append(kept, ignores.Unused()...)
		sortDiags(kept)
		for _, d := range kept {
			clean = false
			sum.Diagnostics++
			sum.ByPass[d.Pass]++
			fmt.Fprintf(w, "%s: %s: %s\n", pkg.Fset.Position(d.Pos), d.Pass, d.Message)
		}
		sum.Suppressed = append(sum.Suppressed, suppressed...)
	}
	sort.Slice(sum.Suppressed, func(i, j int) bool {
		return sum.Suppressed[i].Position < sum.Suppressed[j].Position
	})
	for _, s := range sum.Suppressed {
		sum.SuppressedByPass[s.Pass]++
	}
	return sum, clean, nil
}
