package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// Summary is the machine-readable result of one standalone mpmdvet run; CI
// uploads it so suppressed exceptions stay auditable.
type Summary struct {
	Packages    int            `json:"packages"`
	Diagnostics int            `json:"diagnostics"`
	ByPass      map[string]int `json:"by_pass"`
	Suppressed  []Suppression  `json:"suppressed"`

	// SuppressedByPass counts the pragma suppressions per pass — the number
	// CI ratchets against the committed baseline.
	SuppressedByPass map[string]int `json:"suppressed_by_pass"`

	// Passes breaks the run down per pass: wall time summed over all
	// packages (call-graph and summary construction is charged to the first
	// pass that requests it), surviving diagnostics, and pragma
	// suppressions.
	Passes map[string]PassStat `json:"passes"`
}

// PassStat is one pass's aggregate cost and yield across a run.
type PassStat struct {
	WallMS      float64 `json:"wall_ms"`
	Diagnostics int     `json:"diagnostics"`
	Suppressed  int     `json:"suppressed"`
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
	sum := &Summary{ByPass: map[string]int{}, Passes: map[string]PassStat{}}
	wallByPass := map[string]time.Duration{}
	clean := true
	for _, pkg := range pkgs {
		sum.Packages++
		diags, wall, err := RunAnalyzers(prog, pkg, analyzers)
		if err != nil {
			return nil, false, err
		}
		for name, d := range wall {
			wallByPass[name] += d
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
	sum.SuppressedByPass = map[string]int{}
	for _, s := range sum.Suppressed {
		sum.SuppressedByPass[s.Pass]++
	}
	for _, a := range analyzers {
		sum.Passes[a.Name] = PassStat{
			WallMS:      float64(wallByPass[a.Name]) / float64(time.Millisecond),
			Diagnostics: sum.ByPass[a.Name],
			Suppressed:  sum.SuppressedByPass[a.Name],
		}
	}
	return sum, clean, nil
}

// Baseline pins the expected per-pass //mpmdvet:ignore counts for the tree.
// CI compares each run against the committed file: a count above its pinned
// value means a pragma slipped in without the baseline being updated in the
// same (reviewed) change; a count below it means the baseline is stale and
// should be tightened. Both directions fail, so the file stays exact.
type Baseline struct {
	SuppressedByPass map[string]int `json:"suppressed_by_pass"`

	// TreeBenchMS pins the committed full-tree run time (one Run over
	// ./... on the reference CI machine, milliseconds, set with slack).
	// The budget gate fails when a run exceeds twice this value, so a
	// pass whose summaries blow up the fixpoint is caught in the same
	// change that introduces it.
	TreeBenchMS float64 `json:"tree_bench_ms"`
}

// LoadBaseline reads a committed baseline file.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("baseline %s: %v", path, err)
	}
	return &b, nil
}

// DiffBaseline compares the run's suppression ledger against the baseline and
// returns one message per violation: a suppression with no reason, or a
// per-pass count that drifted from its pinned value in either direction.
func (s *Summary) DiffBaseline(b *Baseline) []string {
	var out []string
	for _, sup := range s.Suppressed {
		if sup.Reason == "" {
			out = append(out, fmt.Sprintf("%s: suppression of %s has no reason (write //mpmdvet:ignore %s <why>)",
				sup.Position, sup.Pass, sup.Pass))
		}
	}
	passes := make([]string, 0, len(s.SuppressedByPass)+len(b.SuppressedByPass))
	seen := map[string]bool{}
	for p := range s.SuppressedByPass {
		passes, seen[p] = append(passes, p), true
	}
	for p := range b.SuppressedByPass {
		if !seen[p] {
			passes = append(passes, p)
		}
	}
	sort.Strings(passes)
	for _, p := range passes {
		got, want := s.SuppressedByPass[p], b.SuppressedByPass[p]
		switch {
		case got > want:
			out = append(out, fmt.Sprintf("pass %s: %d suppressions, baseline pins %d — new pragmas need a baseline update in the same change",
				p, got, want))
		case got < want:
			out = append(out, fmt.Sprintf("pass %s: %d suppressions, baseline pins %d — tighten the baseline",
				p, got, want))
		}
	}
	return out
}

// WriteSummary writes the summary as indented JSON to path.
func WriteSummary(path string, s *Summary) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
