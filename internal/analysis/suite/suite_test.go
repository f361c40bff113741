package suite_test

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/suite"
)

// ledger pins how many diagnostics the tree's //mpmdvet:ignore pragmas
// suppress, per pass. TestTreeClean is its one enforcer: a pragma added or
// removed changes a count, and the count changes here in the same reviewed
// change or `go test ./...` fails. (A pragma without a reason never gets this
// far: it is a diagnostic, "malformed ignore pragma", and suppresses nothing.)
var ledger = map[string]int{"hotpath": 5}

// TestTreeClean is the meta-test: the full mpmdvet suite must run clean over
// every package in the module (test files included) with exactly the pinned
// suppressions, so a regression against any enforced invariant fails `go test
// ./...`.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	_, listing := tree(t)
	pkgs, err := listing.Check(nil)
	if err != nil {
		t.Fatalf("mpmdvet over ./...: %v", err)
	}
	sum, problems := treeProblems(t, pkgs)
	t.Logf("%s", sum.Line())
	if sum.Packages == 0 {
		t.Fatalf("loaded 0 packages — loader regression")
	}
	if problems != "" {
		t.Errorf("the tree is not clean:\n%s", problems)
	}
}

// treeProblems runs the suite over pkgs and returns everything TestTreeClean
// fails on, one line each: the diagnostics, then every pass whose suppression
// count is not the ledger's.
func treeProblems(t *testing.T, pkgs []*analysis.Package) (*analysis.Summary, string) {
	t.Helper()
	var out strings.Builder
	sum, _, err := analysis.Analyze(&out, pkgs, suite.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	// A suppression is filed under the pass whose diagnostic it silenced, so
	// the suite's own names are every name there is.
	problems := out.String()
	for _, a := range suite.Analyzers() {
		if got, want := sum.SuppressedByPass[a.Name], ledger[a.Name]; got != want {
			problems += fmt.Sprintf("pass %s: pragmas suppress %d diagnostics, the ledger in suite_test.go pins %d — change both in one reviewed change\n", a.Name, got, want)
		}
	}
	return sum, problems
}

// TestLedgerDrift plants each way the ledger can drift in the real tree and
// requires TestTreeClean's comparison to name it.
func TestLedgerDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module once per row")
	}
	const pragma = " //mpmdvet:ignore hotpath trace-gated: only runs when m.Trace is enabled"
	for _, row := range []struct {
		name string
		want []string
		edit edit
	}{
		{"one pragma more", []string{`^pass hotpath: pragmas suppress 6 diagnostics, the ledger in suite_test\.go pins 5`},
			edit{"internal/am/am.go", "\th(t, msg)\n", "\t_ = make([]byte, 16) //mpmdvet:ignore hotpath planted\n\th(t, msg)\n"}},
		{"one pragma fewer", []string{`machine\.go:\d+:\d+: hotpath: hot path Send: call into package fmt allocates`,
			`^pass hotpath: pragmas suppress 4 diagnostics, the ledger in suite_test\.go pins 5`},
			edit{"internal/machine/machine.go", pragma, ""}},
		{"a pragma without a reason", []string{`machine\.go:\d+:\d+: mpmdvet: malformed ignore pragma: want "//mpmdvet:ignore" <pass> <reason>`,
			`^pass hotpath: pragmas suppress 4 diagnostics`},
			edit{"internal/machine/machine.go", pragma, " //mpmdvet:ignore hotpath"}},
		{"a pragma for a pass the ledger does not list", []string{`^pass lockguard: pragmas suppress 1 diagnostics, the ledger in suite_test\.go pins 0`},
			edit{"internal/machine/machine.go", "\tn.inboxMu.Lock()\n\tdefer n.inboxMu.Unlock()\n\treturn n.inbox.Len()\n",
				"\treturn n.inbox.Len() //mpmdvet:ignore lockguard planted\n"}},
	} {
		t.Run(row.name, func(t *testing.T) {
			root, listing := tree(t)
			pkgs, err := listing.Check(mutate(t, root, []edit{row.edit}))
			if err != nil {
				t.Fatalf("the mutation must still type-check: %v", err)
			}
			_, problems := treeProblems(t, pkgs)
			for _, want := range row.want {
				if !regexp.MustCompile(`(?m)` + want).MatchString(problems) {
					t.Errorf("the comparison does not name this drift (want a line matching %q); it said:\n%s", want, problems)
				}
			}
		})
	}
}

// BenchmarkMpmdvetTree times a full five-pass run over the whole module —
// load, type-check, build the call graph and summaries, analyze, filter
// pragmas. Loading dominates; the number to watch across changes is the
// marginal cost of adding a pass or a summary.
func BenchmarkMpmdvetTree(b *testing.B) {
	root, _ := tree(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := analysis.Run(io.Discard, root, suite.Analyzers()); err != nil {
			b.Fatalf("mpmdvet over ./...: %v", err)
		}
	}
}

// edit replaces the one occurrence of old in file (module-relative) with new.
type edit struct{ file, old, new string }

// mutate applies edits to the tree's files in memory and returns them as a
// loader overlay. An edit whose anchor text does not occur exactly once fails:
// the code it mutates moved, and the row moves with it.
func mutate(t *testing.T, root string, edits []edit) map[string][]byte {
	t.Helper()
	overlay := map[string][]byte{}
	for _, e := range edits {
		path := filepath.Join(root, e.file)
		src, ok := overlay[path]
		if !ok {
			var err error
			if src, err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}
		if n := strings.Count(string(src), e.old); n != 1 {
			t.Fatalf("%s: the text this row replaces occurs %d times, want once — the code moved, move the row:\n%s", e.file, n, e.old)
		}
		overlay[path] = []byte(strings.Replace(string(src), e.old, e.new, 1))
	}
	return overlay
}

var (
	treeOnce    sync.Once
	treeRoot    string
	treeListing *analysis.Listing
	treeErr     error
)

// tree is the module's root and its one `go list`, shared by every test that
// checks the tree or a mutation of it.
func tree(t testing.TB) (string, *analysis.Listing) {
	t.Helper()
	treeOnce.Do(func() {
		if treeRoot, treeErr = analysis.ModuleRoot("."); treeErr == nil {
			treeListing, treeErr = analysis.List(treeRoot, true)
		}
	})
	if treeErr != nil {
		t.Fatal(treeErr)
	}
	return treeRoot, treeListing
}
