// Package analysistest runs an analyzer over fixture packages and checks its
// diagnostics against // want "regexp" expectations, mirroring the x/tools
// package of the same name on the repo's stdlib-only framework.
//
// Fixtures live in passes/<pass>/testdata/<fixture>/ — testdata is invisible
// to `go list ./...`, so deliberately-violating code never pollutes the real
// tree — and are type-checked against the module's own export data, so they
// import the real repro/internal/... packages rather than mocks.
package analysistest

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

var (
	exportsOnce sync.Once
	exportsMap  map[string]string
	exportsErr  error
)

func moduleExports(t *testing.T) map[string]string {
	exportsOnce.Do(func() {
		root, err := analysis.ModuleRoot(".")
		if err != nil {
			exportsErr = err
			return
		}
		exportsMap, exportsErr = analysis.ModuleExports(root)
	})
	if exportsErr != nil {
		t.Fatalf("building module export data: %v", exportsErr)
	}
	return exportsMap
}

// Result reports what one fixture run produced beyond the want-matching:
// diagnostics suppressed by //mpmdvet:ignore pragmas, so tests can assert the
// escape hatch actually engaged.
type Result struct {
	Suppressed []analysis.Suppression
}

// Run applies the analyzer to each named fixture directory under testdata and
// matches diagnostics (after pragma filtering) against // want expectations.
func Run(t *testing.T, a *analysis.Analyzer, fixtures ...string) []Result {
	t.Helper()
	exports := moduleExports(t)
	var results []Result
	for _, fx := range fixtures {
		results = append(results, runOne(t, a, exports, fx))
	}
	return results
}

func runOne(t *testing.T, a *analysis.Analyzer, exports map[string]string, fixture string) Result {
	t.Helper()
	dir := filepath.Join("testdata", fixture)
	fset := token.NewFileSet()
	pkg, err := analysis.LoadFixture(fset, dir, "fixture/"+fixture, exports)
	if err != nil {
		t.Fatalf("%s: %v", fixture, err)
	}
	// A fixture is its own whole program: transitive checks see every
	// function in the fixture package, so multi-hop witness chains are
	// testable without loading the real tree.
	prog := analysis.NewProgram([]*analysis.Package{pkg})
	diags, err := analysis.RunAnalyzers(prog, pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("%s: running %s: %v", fixture, a.Name, err)
	}
	ignores, malformed := analysis.CollectIgnores(fset, pkg.Files)
	kept, suppressed := ignores.Filter(diags)
	kept = append(kept, malformed...)

	wants := collectWants(t, fset, pkg.Files)
	for _, d := range kept {
		pos := fset.Position(d.Pos)
		if !claimWant(wants, pos.Filename, pos.Line, d.Message) {
			t.Errorf("%s: unexpected diagnostic at %s: %s: %s", fixture, pos, d.Pass, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: %s:%d: no diagnostic matched want %q", fixture, w.file, w.line, w.re)
		}
	}
	return Result{Suppressed: suppressed}
}

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// collectWants parses `// want "re1" "re2"` and backquoted forms from every
// comment in the fixture.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				idx := strings.Index(text, "want ")
				if idx < 0 || strings.TrimSpace(text[:idx]) != "" {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, pat := range splitPatterns(t, pos, text[idx+len("want "):]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// splitPatterns tokenizes a want payload: sequence of Go-quoted strings.
func splitPatterns(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		var quote byte = s[0]
		if quote != '"' && quote != '`' {
			t.Fatalf("%s: want expectation must be a quoted string, got %q", pos, s)
		}
		end := 1
		for end < len(s) {
			if s[end] == quote && (quote == '`' || s[end-1] != '\\') {
				break
			}
			end++
		}
		if end == len(s) {
			t.Fatalf("%s: unterminated want pattern %q", pos, s)
		}
		tok := s[:end+1]
		pat, err := strconv.Unquote(tok)
		if err != nil {
			t.Fatalf("%s: cannot unquote want pattern %s: %v", pos, tok, err)
		}
		out = append(out, pat)
		s = strings.TrimSpace(s[end+1:])
	}
	if len(out) == 0 {
		t.Fatalf("%s: want with no patterns", pos)
	}
	return out
}

func claimWant(wants []*want, file string, line int, msg string) bool {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}
