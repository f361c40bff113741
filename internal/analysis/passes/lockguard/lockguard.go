// Package lockguard turns `Guarded by` prose into a checked invariant: a
// struct field annotated
//
//	done bool //mpmdvet:guard nd.mu
//
// may only be accessed while the named mutex is held. The pass runs the cfg
// package's must-hold lockset analysis over every function body and checks
// each field selector against the guard path, which is resolved relative to
// the access base: p.done requires p.nd.mu in the lockset. A function the
// runtime only calls with a lock already held declares it with
// //mpmdvet:locked <recv.path>, which seeds the entry lockset; cond.Wait is
// lock-preserving (sync.Cond reacquires before returning), so wait loops
// check clean. Writes under an RLock are reported separately: a read lock
// licenses reads only.
//
// The transitive layer rides on the lock-effect summary (cfg.LockFacts over
// the program call graph):
//
//   - //mpmdvet:requires <path> on a function is a checked contract: every
//     call site the graph resolves must provably hold the named lock (the
//     path, rooted at the callee's receiver or a parameter, is re-resolved
//     against the caller's argument expressions). Inside the body it seeds
//     the entry lockset like //mpmdvet:locked.
//   - Helper functions that net-acquire or net-release a receiver- or
//     parameter-rooted lock have that effect applied at statement-level
//     static call sites, so lock()/unlock() wrappers are understood by the
//     must-hold walk instead of hiding the lock from it.
//
// Bounds, by design: effects and contracts flow only through single static
// in-set callees; calls in go/defer statements are exempt from requires
// enforcement (a goroutine does not inherit the caller's locks, and defers
// run at exit where the set is unknown); locks not rooted at the receiver
// or a parameter (globals) are not summarizable.
//
// Construction sites are exempt by shape: composite-literal keys
// (&Proc{done: …}) are not selector accesses, matching the convention that
// a value is unshared until published. Accesses whose base is not a
// variable/field path (a call result, a map element) cannot be proven and
// are skipped — keep guarded fields reachable through named paths.
//
// Malformed or unresolvable concurrency annotations (guard/locked/cond/cpu/
// requires) are reported by this pass, once per package.
package lockguard

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/cfg"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockguard",
	Doc: "check that //mpmdvet:guard fields are only accessed with their mutex held " +
		"(lockset analysis; //mpmdvet:locked seeds entry locks, cond.Wait preserves them) " +
		"and that //mpmdvet:requires contracts hold at every resolvable call site, with " +
		"helper lock effects applied transitively through the call-graph summary",
	Run: run,
}

func run(pass *analysis.Pass) error {
	annots := cfg.CollectAnnotations(pass.TypesInfo, pass.Files)
	g := callgraph.Of(pass.Prog)
	facts := cfg.LockFacts(pass.Prog)
	hasContracts := false
	for _, f := range facts {
		if len(f.Requires) > 0 {
			hasContracts = true
			break
		}
	}
	c := &checker{pass: pass, info: pass.TypesInfo, annots: annots, graph: g, facts: facts,
		fx: cfg.SummaryEffects(pass.Prog, pass.TypesInfo, pass.Pkg)}
	if len(annots.Guards) > 0 || hasContracts {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body != nil {
						entry := cfg.EntryLocks(pass.TypesInfo, pass.Pkg, n, annots)
						c.body(n.Body, entry)
					}
				case *ast.FuncLit:
					// Every literal is its own function starting lock-free;
					// one that needs a lock takes it itself (the Go()
					// closure idiom). Inspect finds nested literals too.
					c.body(n.Body, cfg.LockSet{})
				}
				return true
			})
		}
	}
	for _, w := range annots.Warnings {
		pass.Reportf(w.Pos, "%s", w.Message)
	}
	return nil
}

type checker struct {
	pass   *analysis.Pass
	info   *types.Info
	annots *cfg.Annotations
	graph  *callgraph.Graph
	facts  map[*callgraph.Node]cfg.LockFact
	fx     cfg.Effects // helper lock effects, applied at every call of the walk
}

func (c *checker) body(body *ast.BlockStmt, entry cfg.LockSet) {
	cfg.WalkLockedFx(c.info, body, entry, c.fx, c.node)
}

// node checks one flat CFG node's expressions against the pre-state.
func (c *checker) node(s cfg.LockSet, n ast.Node) {
	switch n := n.(type) {
	case *cfg.Fall, *cfg.TryAcquired, *ast.ForStmt:
		// Synthetic exit / TryLock-success marker / condition-less loop
		// marker: no expressions.
	case *ast.RangeStmt:
		c.tree(s, n.X, nil)
		writes := map[ast.Expr]bool{}
		if n.Key != nil {
			writes[ast.Unparen(n.Key)] = true
			c.tree(s, n.Key, writes)
		}
		if n.Value != nil {
			writes[ast.Unparen(n.Value)] = true
			c.tree(s, n.Value, writes)
		}
	case *ast.AssignStmt:
		writes := map[ast.Expr]bool{}
		for _, l := range n.Lhs {
			writes[ast.Unparen(l)] = true
		}
		for _, l := range n.Lhs {
			c.tree(s, l, writes)
		}
		for _, r := range n.Rhs {
			c.tree(s, r, nil)
		}
	case *ast.IncDecStmt:
		writes := map[ast.Expr]bool{ast.Unparen(n.X): true}
		c.tree(s, n.X, writes)
	default:
		c.tree(s, n, nil)
	}
}

// tree walks a node subtree checking guarded-field selectors and requires
// contracts at calls. writes marks expressions that are assignment targets
// (write accesses). FuncLit bodies are skipped — they are analyzed as their
// own functions. Calls spawned or deferred are exempt from contract checks
// (see the package doc's bounds).
func (c *checker) tree(s cfg.LockSet, root ast.Node, writes map[ast.Expr]bool) {
	var exempt map[*ast.CallExpr]bool
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			if exempt == nil {
				exempt = map[*ast.CallExpr]bool{}
			}
			exempt[n.Call] = true
		case *ast.DeferStmt:
			if exempt == nil {
				exempt = map[*ast.CallExpr]bool{}
			}
			exempt[n.Call] = true
		case *ast.CallExpr:
			if !exempt[n] {
				c.contract(s, n)
			}
		case *ast.SelectorExpr:
			c.selector(s, n, writes[n])
		}
		return true
	})
}

// contract enforces every resolvable //mpmdvet:requires declaration of the
// call's possible callees against the pre-state lockset.
func (c *checker) contract(s cfg.LockSet, call *ast.CallExpr) {
	site := c.graph.Sites[call]
	if site == nil || site.Kind == callgraph.KindMethodValue {
		return // not a call the graph resolved, or a value reference, not a call
	}
	for _, callee := range site.Callees {
		for _, r := range c.facts[callee].Requires {
			key, _, ok := cfg.ResolveReq(c.info, c.pass.Pkg, call, r)
			if !ok {
				continue // argument path not keyable: cannot prove either way
			}
			if _, held := s[key]; held {
				continue
			}
			pos := c.pass.Fset.Position(r.Pos)
			c.pass.Reportf(call.Pos(),
				"call to %s requires %s held (%s, declared at %s:%d): not provably held at this call",
				callee.Name(), cfg.CallerPath(call, r), cfg.RequiresDirective,
				shortName(pos.Filename), pos.Line)
		}
	}
}

func shortName(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

func (c *checker) selector(s cfg.LockSet, sel *ast.SelectorExpr, isWrite bool) {
	selection := c.info.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal {
		return
	}
	field, ok := selection.Obj().(*types.Var)
	if !ok {
		return
	}
	guard, guarded := c.annots.Guards[field]
	if !guarded {
		return
	}
	base, ok := analysis.ExprKey(c.info, sel.X)
	if !ok {
		return // unprovable base (call result, map element): skip
	}
	// Splice embedded hops from promoted access so the base names the
	// field's immediate owner struct, which the guard path is relative to.
	index := selection.Index()
	if len(index) > 1 {
		t := baseType(c.info, sel.X)
		for _, idx := range index[:len(index)-1] {
			st, isStruct := analysis.Deref(types.Unalias(t)).Underlying().(*types.Struct)
			if !isStruct {
				return
			}
			f := st.Field(idx)
			base += "." + f.Name()
			t = f.Type()
		}
	}
	required := base + "." + guard
	held, ok := s[required]
	if !ok {
		c.pass.Reportf(sel.Sel.Pos(),
			"field %s is guarded by %s (%s): not provably held at this access",
			field.Name(), guard, cfg.GuardDirective)
		return
	}
	if held.RLock && isWrite {
		c.pass.Reportf(sel.Sel.Pos(),
			"write to field %s while holding only the read lock of %s", field.Name(), guard)
	}
}

func baseType(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}
