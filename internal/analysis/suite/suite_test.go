package suite_test

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/suite"
)

// TestTreeClean is the meta-test: the full mpmdvet suite must run clean over
// every package in the module (test files included), so a regression against
// any enforced invariant fails `go test ./...` even before CI's dedicated
// vet step runs.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root := moduleRoot(t)
	var out strings.Builder
	sum, clean, err := analysis.Run(&out, root, suite.Analyzers())
	if err != nil {
		t.Fatalf("mpmdvet over ./...: %v", err)
	}
	if !clean {
		t.Errorf("mpmdvet found violations:\n%s", out.String())
	}
	t.Logf("%s", sum.Line())
	if sum.Packages == 0 {
		t.Fatalf("loaded 0 packages — loader regression")
	}
	// Every suppression must carry its justification.
	for _, s := range sum.Suppressed {
		if strings.TrimSpace(s.Reason) == "" {
			t.Errorf("suppression at %s has no reason", s.Position)
		}
	}
	// The suppression ledger must match the committed baseline exactly: new
	// pragmas (and removed ones) update mpmdvet_baseline.json in the same
	// reviewed change.
	base, err := analysis.LoadBaseline(filepath.Join(root, "mpmdvet_baseline.json"))
	if err != nil {
		t.Fatalf("committed baseline: %v", err)
	}
	for _, msg := range sum.DiffBaseline(base) {
		t.Errorf("baseline drift: %s", msg)
	}
}

// BenchmarkMpmdvetTree times a full five-pass run over the whole module —
// load, type-check, build the call graph and summaries, analyze, filter
// pragmas. Loading dominates; the number to watch across changes is the
// marginal cost of adding a pass or a summary.
func BenchmarkMpmdvetTree(b *testing.B) {
	root := moduleRoot(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := analysis.Run(io.Discard, root, suite.Analyzers()); err != nil {
			b.Fatalf("mpmdvet over ./...: %v", err)
		}
	}
}

// TestMpmdvetTreeBudget is the CI perf ratchet for BenchmarkMpmdvetTree:
// the best of three full-tree runs must stay under twice the committed
// tree_bench_ms in mpmdvet_baseline.json, so a summary fixpoint or loader
// regression that blows up the vet time fails the change that caused it.
// Gated behind MPMDVET_BENCH_GATE=1 because wall-time assertions are only
// meaningful on the dedicated CI runner, not a loaded dev box.
func TestMpmdvetTreeBudget(t *testing.T) {
	if os.Getenv("MPMDVET_BENCH_GATE") != "1" {
		t.Skip("set MPMDVET_BENCH_GATE=1 to enforce the tree-run time budget")
	}
	root := moduleRoot(t)
	base, err := analysis.LoadBaseline(filepath.Join(root, "mpmdvet_baseline.json"))
	if err != nil {
		t.Fatalf("committed baseline: %v", err)
	}
	if base.TreeBenchMS <= 0 {
		t.Fatalf("mpmdvet_baseline.json pins no tree_bench_ms — commit a measured value")
	}
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, _, err := analysis.Run(io.Discard, root, suite.Analyzers()); err != nil {
			t.Fatalf("mpmdvet over ./...: %v", err)
		}
		if el := time.Since(start); el < best {
			best = el
		}
	}
	budget := time.Duration(2 * base.TreeBenchMS * float64(time.Millisecond))
	t.Logf("best of 3 tree runs: %v (budget %v, committed %gms)", best, budget, base.TreeBenchMS)
	if best > budget {
		t.Errorf("tree run took %v, over the %v budget (2x committed %gms) — "+
			"find the regression or re-pin tree_bench_ms in the same change", best, budget, base.TreeBenchMS)
	}
}

func moduleRoot(t testing.TB) string {
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod found")
		}
		dir = parent
	}
}
