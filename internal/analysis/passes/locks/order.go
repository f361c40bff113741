package locks

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
)

// lockorder builds the package's inter-mutex acquisition graph and
// diagnoses deadlock-shaped patterns. Nodes are mutex classes — the
// declaration of the mutex field or variable, so every instance of
// `nd.mu` is one class — and an edge A→B is recorded each time a B-class
// lock is acquired while an A-class lock is held (the lockset supplies the
// held set at each acquisition; a lock a callee net-released — live's
// release — is not held at the next Lock, one it net-acquired is).
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
// runtime's lock hierarchies — node CPU, peer writer — each
// live inside one package).

// edge is one observed held→acquired pair, kept at its first occurrence.
type edge struct {
	from, to *types.Var
	pos      token.Pos
}

// orderNode records the edges of one acquisition against the pre-state.
func (w *walker) orderNode(s cfg.LockSet, n ast.Node) {
	es, ok := n.(*ast.ExprStmt)
	if !ok {
		return
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return
	}
	op, key, class, ok := cfg.MutexOp(w.info, call)
	if !ok || (op != cfg.OpLock && op != cfg.OpRLock) {
		return
	}
	if held, already := s[key]; already && op == cfg.OpLock && !held.RLock {
		w.reportf("lockorder", call.Pos(),
			"%s is already held on every path here: sync mutexes are not reentrant, this deadlocks",
			renderExpr(call))
		return
	}
	for heldKey, h := range s {
		if heldKey == key {
			continue
		}
		w.addEdge(h.Class, class, call.Pos())
	}
}

func (w *walker) addEdge(from, to *types.Var, pos token.Pos) {
	k := [2]*types.Var{from, to}
	if _, ok := w.edges[k]; ok {
		return
	}
	e := &edge{from: from, to: to, pos: pos}
	w.edges[k] = e
	w.order = append(w.order, e)
}

// reportCycles reports every edge that lies on a cycle of the class graph,
// and self-edges (two instances of one class held together).
func (w *walker) reportCycles() {
	succs := map[*types.Var][]*types.Var{}
	for _, e := range w.order {
		if e.from != e.to {
			succs[e.from] = append(succs[e.from], e.to)
		}
	}
	// Deterministic report order: by position.
	es := make([]*edge, len(w.order))
	copy(es, w.order)
	sort.Slice(es, func(i, j int) bool { return es[i].pos < es[j].pos })
	for _, e := range es {
		if e.from == e.to {
			w.reportf("lockorder", e.pos,
				"second %s acquired while one is already held: document and enforce an instance order or restructure",
				classLabel(w.pass.Fset, e.from))
			continue
		}
		if reaches(succs, e.to, e.from) {
			w.reportf("lockorder", e.pos,
				"lock order cycle: %s acquired while holding %s, but the reverse order also occurs in this package",
				classLabel(w.pass.Fset, e.to), classLabel(w.pass.Fset, e.from))
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

func renderExpr(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if base, ok := analysis.ExprText(sel.X); ok {
			return base
		}
	}
	return "this lock"
}
