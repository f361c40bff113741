// Package analysis is the repo's static-analysis framework: a small,
// dependency-free mirror of the golang.org/x/tools/go/analysis API surface
// that mpmdvet's passes are written against.
//
// The runtime's correctness rests on conventions the compiler cannot see —
// pooled wire.Buf ownership transfer, allocation-free hot paths, which lock
// guards which field, lock order, nothing blocking while a node's CPU is
// held. Each convention is enforced by one Analyzer in
// internal/analysis/passes, and one driver runs them over the whole tree at
// once: the standalone loader (Run in driver.go, used by `go run
// ./cmd/mpmdvet ./...`, CI under GOOS=linux and GOOS=darwin, and the
// meta-test). A pass earns its place in the suite's mutation corpus
// (suite.TestMutationCorpus): real bugs planted in the real tree that only
// it reports.
//
// x/tools itself is deliberately not imported: the module is stdlib-only and
// must build hermetically, so the framework reimplements the narrow slice it
// needs (Analyzer/Pass/Diagnostic and a package loader over `go list
// -export`) on go/ast, go/types, and go/importer.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sync"
)

// Analyzer describes one mpmdvet pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics and //mpmdvet:ignore pragmas.
	Name string
	// Doc is the one-paragraph description shown by `mpmdvet -help`.
	Doc string
	// Run applies the pass to one type-checked package.
	Run func(*Pass) error
}

// Pass is the interface between one Analyzer run and the driver: one
// type-checked package plus a diagnostic sink.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Prog is the whole loaded package set; transitive passes build the call
	// graph and its summaries from it (cached across passes via Prog.Fact).
	Prog *Program

	report func(Diagnostic)
}

// Program is the full set of packages one driver invocation loaded, plus a
// cache for facts derived from it (the call graph, bottom-up summaries). The
// driver builds one Program for the whole tree, so diagnostics that only make
// sense with the full set in view ("interface has no implementers") hold.
type Program struct {
	Pkgs []*Package

	mu    sync.Mutex
	facts map[any]*factEntry
}

type factEntry struct {
	once sync.Once
	val  any
}

// NewProgram wraps a loaded package set.
func NewProgram(pkgs []*Package) *Program {
	return &Program{Pkgs: pkgs, facts: map[any]*factEntry{}}
}

// Fact returns the cached fact under key, building it once on first request.
// Keys are comparable sentinel values (typically an unexported zero-size
// struct type per fact), so independent passes share one computation. The map
// lock is not held while build runs, so one fact's build may request other
// facts (a summary asking for the call graph); only a self-referential build
// (same key) would deadlock.
func (p *Program) Fact(key any, build func() any) any {
	p.mu.Lock()
	e, ok := p.facts[key]
	if !ok {
		e = &factEntry{}
		p.facts[key] = e
	}
	p.mu.Unlock()
	e.once.Do(func() { e.val = build() })
	return e.val
}

// Diagnostic is one finding at a position.
type Diagnostic struct {
	Pass    string
	Pos     token.Pos
	Message string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pass: p.Analyzer.Name, Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// RunAnalyzers applies every analyzer to the package and returns the
// unfiltered diagnostics in deterministic (position) order.
func RunAnalyzers(prog *Program, pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.Info,
			Prog:      prog,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
		}
	}
	sortDiags(diags)
	return diags, nil
}

// Package is one loaded, type-checked package (see load.go).
type Package struct {
	// ID is the driver-facing identity ("repro/internal/am" or the go list
	// test-variant form "p [p.test]").
	ID string
	// ImportPath is the canonical import path (no test-variant suffix).
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// NewInfo returns a types.Info with every map the passes consult populated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

func sortDiags(diags []Diagnostic) {
	// Insertion sort: diagnostic counts are tiny and the passes already
	// emit in near-positional order.
	for i := 1; i < len(diags); i++ {
		for j := i; j > 0 && less(diags[j], diags[j-1]); j-- {
			diags[j], diags[j-1] = diags[j-1], diags[j]
		}
	}
}

func less(a, b Diagnostic) bool {
	if a.Pos != b.Pos {
		return a.Pos < b.Pos
	}
	return a.Pass < b.Pass
}
