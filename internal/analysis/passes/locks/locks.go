// Package locks holds the three passes that read the cfg package's must-hold
// lockset — lockguard (guard.go), lockorder (order.go) and blockhold
// (block.go). They ask different questions of the same state, so the lockset
// fixpoint runs once per function body and hands each flat node's pre-state
// to three reporters; each Analyzer then prints the findings filed under its
// own name, which is also the name its //mpmdvet:ignore pragmas use.
//
// Common ground of the three: a function the runtime only calls with a lock
// already held declares it with //mpmdvet:locked <recv.path>, which seeds the
// entry lockset; a function literal is its own function and starts lock-free
// (one that needs a lock takes it itself — the Go() closure idiom); cond.Wait
// is lock-preserving (sync.Cond reacquires before returning); and helper
// functions that net-acquire or net-release a receiver- or parameter-rooted
// lock have that effect applied at statement-level static call sites
// (cfg.LockFacts over the program call graph), so lock()/unlock() wrappers are
// understood by the walk instead of hiding the lock from it. Effects flow only
// through single static in-set callees, and locks not rooted at the receiver
// or a parameter (globals) are not summarizable — bounds by design.
//
// Each pass's fixtures and test stay in its own directory
// (../lockguard, ../lockorder, ../blockhold: test-only packages), so a
// fixture run still exercises one Analyzer at a time.
package locks

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/cfg"
)

var (
	Lockguard = analyzer("lockguard",
		"check that //mpmdvet:guard fields are only accessed with their mutex held "+
			"(lockset analysis; //mpmdvet:locked seeds entry locks, cond.Wait preserves them), "+
			"with helper lock effects applied transitively through the call-graph summary")
	Lockorder = analyzer("lockorder",
		"build the per-package mutex acquisition graph and report cycles, "+
			"inconsistent orders, and definite re-entrant locking")
	Blockhold = analyzer("blockhold",
		"report blocking operations (channel ops, net I/O, sleeps, waits, "+
			"unbounded loops) while a //mpmd:cpu mutex is held, transitively through in-set callees")
)

func analyzer(name, doc string) *analysis.Analyzer {
	return &analysis.Analyzer{Name: name, Doc: doc, Run: func(pass *analysis.Pass) error {
		for _, d := range walkPackage(pass)[name] {
			pass.Reportf(d.Pos, "%s", d.Message)
		}
		return nil
	}}
}

type walkKey struct{ pkg *types.Package }

// walkPackage runs the one lockset walk over every function body of the
// pass's package and returns the findings by pass name. The result is cached
// on the Program, so whichever of the three analyzers runs first pays for it.
func walkPackage(pass *analysis.Pass) map[string][]analysis.Diagnostic {
	return pass.Prog.Fact(walkKey{pass.Pkg}, func() any {
		annots := cfg.CollectAnnotations(pass.TypesInfo, pass.Files)
		w := &walker{
			pass:   pass,
			info:   pass.TypesInfo,
			annots: annots,
			graph:  callgraph.Of(pass.Prog),
			fx:     cfg.SummaryEffects(pass.Prog, pass.TypesInfo, pass.Pkg),
			found:  map[string][]analysis.Diagnostic{},
			edges:  map[[2]*types.Var]*edge{},
		}
		if len(annots.CPU) > 0 {
			w.blockFacts = BlockFacts(pass.Prog)
			w.polls = map[ast.Stmt]bool{}
			for _, f := range pass.Files {
				collectPolls(f, w.polls)
			}
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body != nil {
						fn, _ := w.info.Defs[n.Name].(*types.Func)
						w.body(n.Body, cfg.EntryLocks(w.info, pass.Pkg, n, annots), w.graph.NodeOf(fn))
					}
				case *ast.FuncLit:
					// Inspect finds nested literals too.
					w.body(n.Body, cfg.LockSet{}, nil)
				}
				return true
			})
		}
		w.reportCycles()
		// Malformed or unresolvable concurrency annotations (guard/locked/
		// cond/cpu) fail the build once, under lockguard.
		for _, warn := range annots.Warnings {
			w.reportf("lockguard", warn.Pos, "%s", warn.Message)
		}
		return w.found
	}).(map[string][]analysis.Diagnostic)
}

// walker is the state of one package's walk: what all three reporters read,
// then what each keeps for itself.
type walker struct {
	pass   *analysis.Pass
	info   *types.Info
	annots *cfg.Annotations
	graph  *callgraph.Graph
	fx     cfg.Effects // helper lock effects, applied at every call of the walk
	found  map[string][]analysis.Diagnostic

	// lockorder: observed held→acquired class pairs, in insertion order.
	edges map[[2]*types.Var]*edge
	order []*edge

	// blockhold (both nil in a package with no //mpmd:cpu mutex): the
	// program's may-block summary, and the comm statements of selects that
	// carry a default clause — those are polls.
	blockFacts callgraph.Witnesses
	polls      map[ast.Stmt]bool
}

func (w *walker) reportf(pass string, pos token.Pos, format string, args ...any) {
	w.found[pass] = append(w.found[pass], analysis.Diagnostic{Pass: pass, Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// body runs the lockset fixpoint over one function body; self is the body's
// call-graph node (nil for a literal).
func (w *walker) body(body *ast.BlockStmt, entry cfg.LockSet, self *callgraph.Node) {
	cfg.WalkLocked(w.info, body, entry, w.fx, func(s cfg.LockSet, n ast.Node) {
		if len(w.annots.Guards) > 0 {
			w.guardNode(s, n)
		}
		w.orderNode(s, n)
		if w.blockFacts != nil {
			w.blockNode(s, n, self)
		}
	})
}

// classLabel renders a mutex class for a message: the declared name plus
// its declaration site, which disambiguates the many fields named "mu".
func classLabel(fset *token.FileSet, v *types.Var) string {
	pos := fset.Position(v.Pos())
	return fmt.Sprintf("%s (declared at %s:%d)", v.Name(), pos.Filename, pos.Line)
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}
