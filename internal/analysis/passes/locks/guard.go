package locks

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
)

// lockguard turns `Guarded by` prose into a checked invariant: a struct field
// annotated
//
//	done bool //mpmdvet:guard nd.mu
//
// may only be accessed while the named mutex is held. Each field selector of
// a flat node is checked against the guard path, which is resolved relative
// to the access base: p.done requires p.nd.mu in the lockset. Writes under an
// RLock are reported separately: a read lock licenses reads only.
//
// Construction sites are exempt by shape: composite-literal keys
// (&Proc{done: …}) are not selector accesses, matching the convention that
// a value is unshared until published. Accesses whose base is not a
// variable/field path (a call result, a map element) cannot be proven and
// are skipped — keep guarded fields reachable through named paths.

// guardNode checks one flat CFG node's expressions against the pre-state.
func (w *walker) guardNode(s cfg.LockSet, n ast.Node) {
	switch n := n.(type) {
	case *cfg.Fall, *cfg.TryAcquired, *ast.ForStmt:
		// Synthetic exit / TryLock-success marker / condition-less loop
		// marker: no expressions.
	case *ast.RangeStmt:
		w.guardTree(s, n.X, nil)
		writes := map[ast.Expr]bool{}
		if n.Key != nil {
			writes[ast.Unparen(n.Key)] = true
			w.guardTree(s, n.Key, writes)
		}
		if n.Value != nil {
			writes[ast.Unparen(n.Value)] = true
			w.guardTree(s, n.Value, writes)
		}
	case *ast.AssignStmt:
		writes := map[ast.Expr]bool{}
		for _, l := range n.Lhs {
			writes[ast.Unparen(l)] = true
		}
		for _, l := range n.Lhs {
			w.guardTree(s, l, writes)
		}
		for _, r := range n.Rhs {
			w.guardTree(s, r, nil)
		}
	case *ast.IncDecStmt:
		writes := map[ast.Expr]bool{ast.Unparen(n.X): true}
		w.guardTree(s, n.X, writes)
	default:
		w.guardTree(s, n, nil)
	}
}

// guardTree walks a node subtree checking guarded-field selectors. writes
// marks expressions that are assignment targets (write accesses). FuncLit
// bodies are skipped — they are analyzed as their own functions.
func (w *walker) guardTree(s cfg.LockSet, root ast.Node, writes map[ast.Expr]bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectorExpr:
			w.selector(s, n, writes[n])
		}
		return true
	})
}

func (w *walker) selector(s cfg.LockSet, sel *ast.SelectorExpr, isWrite bool) {
	selection := w.info.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal {
		return
	}
	field, ok := selection.Obj().(*types.Var)
	if !ok {
		return
	}
	guard, guarded := w.annots.Guards[field]
	if !guarded {
		return
	}
	base, ok := analysis.ExprKey(w.info, sel.X)
	if !ok {
		return // unprovable base (call result, map element): skip
	}
	// Splice embedded hops from promoted access so the base names the
	// field's immediate owner struct, which the guard path is relative to.
	index := selection.Index()
	if len(index) > 1 {
		t := typeOf(w.info, sel.X)
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
		w.reportf("lockguard", sel.Sel.Pos(),
			"field %s is guarded by %s (%s): not provably held at this access",
			field.Name(), guard, cfg.GuardDirective)
		return
	}
	if held.RLock && isWrite {
		w.reportf("lockguard", sel.Sel.Pos(),
			"write to field %s while holding only the read lock of %s", field.Name(), guard)
	}
}
