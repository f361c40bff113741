// Package lockorder builds the package's inter-mutex acquisition graph and
// diagnoses deadlock-shaped patterns. Nodes are mutex classes — the
// declaration of the mutex field or variable, so every instance of
// `nd.mu` is one class — and an edge A→B is recorded each time a B-class
// lock is acquired while an A-class lock is held (the cfg lockset analysis
// supplies the held set at each acquisition).
//
// Reported:
//
//   - re-acquiring the exact lock already held on every path (sync.Mutex is
//     not reentrant: definite self-deadlock)
//   - acquisition edges that lie on a cycle of the class graph, which
//     covers both A→B/B→A inconsistent orders and longer cycles
//   - acquiring a second instance of a class already held (a self-edge):
//     without a documented instance order two goroutines can cross
//
// The graph is per package: cross-package lock nesting is out of scope (the
// runtime's lock hierarchies — node CPU, pending list, peer writer — each
// live inside one package).
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "build the per-package mutex acquisition graph and report cycles, " +
		"inconsistent orders, and definite re-entrant locking",
	Run: run,
}

// edge is one observed held→acquired pair, kept at its first occurrence.
type edge struct {
	from, to *types.Var
	pos      token.Pos
}

type collector struct {
	pass  *analysis.Pass
	info  *types.Info
	edges map[[2]*types.Var]*edge
	order []*edge // insertion order, for deterministic iteration
	// fx applies helper lock effects: a lock a callee net-released (live's
	// release) is not held at the next Lock, one it net-acquired is.
	fx cfg.Effects
}

func run(pass *analysis.Pass) error {
	c := &collector{pass: pass, info: pass.TypesInfo, edges: map[[2]*types.Var]*edge{},
		fx: cfg.SummaryEffects(pass.Prog, pass.TypesInfo, pass.Pkg)}
	annots := cfg.CollectAnnotations(pass.TypesInfo, pass.Files)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					entry := cfg.EntryLocks(pass.TypesInfo, pass.Pkg, n, annots)
					c.body(n.Body, entry)
				}
			case *ast.FuncLit:
				c.body(n.Body, cfg.LockSet{})
			}
			return true
		})
	}
	c.reportCycles()
	return nil
}

func (c *collector) body(body *ast.BlockStmt, entry cfg.LockSet) {
	cfg.WalkLockedFx(c.info, body, entry, c.fx, func(s cfg.LockSet, n ast.Node) {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return
		}
		op, key, class, ok := cfg.MutexOp(c.info, call)
		if !ok || (op != cfg.OpLock && op != cfg.OpRLock) {
			return
		}
		if held, already := s[key]; already && op == cfg.OpLock && !held.RLock {
			c.pass.Reportf(call.Pos(),
				"%s is already held on every path here: sync mutexes are not reentrant, this deadlocks",
				renderExpr(call))
			return
		}
		for heldKey, h := range s {
			if heldKey == key {
				continue
			}
			c.addEdge(h.Class, class, call.Pos())
		}
	})
}

func (c *collector) addEdge(from, to *types.Var, pos token.Pos) {
	k := [2]*types.Var{from, to}
	if _, ok := c.edges[k]; ok {
		return
	}
	e := &edge{from: from, to: to, pos: pos}
	c.edges[k] = e
	c.order = append(c.order, e)
}

// reportCycles reports every edge that lies on a cycle of the class graph,
// and self-edges (two instances of one class held together).
func (c *collector) reportCycles() {
	succs := map[*types.Var][]*types.Var{}
	for _, e := range c.order {
		if e.from != e.to {
			succs[e.from] = append(succs[e.from], e.to)
		}
	}
	// Deterministic report order: by position.
	es := make([]*edge, len(c.order))
	copy(es, c.order)
	sort.Slice(es, func(i, j int) bool { return es[i].pos < es[j].pos })
	for _, e := range es {
		if e.from == e.to {
			c.pass.Reportf(e.pos,
				"second %s acquired while one is already held: document and enforce an instance order or restructure",
				classLabel(c.pass.Fset, e.from))
			continue
		}
		if reaches(succs, e.to, e.from) {
			c.pass.Reportf(e.pos,
				"lock order cycle: %s acquired while holding %s, but the reverse order also occurs in this package",
				classLabel(c.pass.Fset, e.to), classLabel(c.pass.Fset, e.from))
		}
	}
}

// reaches reports whether to is reachable from from in the class graph.
func reaches(succs map[*types.Var][]*types.Var, from, to *types.Var) bool {
	seen := map[*types.Var]bool{}
	stack := []*types.Var{from}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v == to {
			return true
		}
		if seen[v] {
			continue
		}
		seen[v] = true
		stack = append(stack, succs[v]...)
	}
	return false
}

// classLabel renders a mutex class for a message: the declared name plus
// its declaration site, which disambiguates the many fields named "mu".
func classLabel(fset *token.FileSet, v *types.Var) string {
	pos := fset.Position(v.Pos())
	return fmt.Sprintf("%s (declared at %s:%d)", v.Name(), pos.Filename, pos.Line)
}

func renderExpr(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if base, ok := analysis.ExprText(sel.X); ok {
			return base
		}
	}
	return "this lock"
}
