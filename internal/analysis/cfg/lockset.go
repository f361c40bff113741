package cfg

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// LockOp classifies a call as a mutex or cond operation.
type LockOp int

const (
	OpNone LockOp = iota
	OpLock
	OpRLock
	OpUnlock
	OpRUnlock
	// OpWait is sync.Cond.Wait: it releases and reacquires the cond's lock
	// around the block, so the lockset treats it as lock-preserving; the
	// blocking itself is blockhold's concern.
	OpWait
	// OpTryLock / OpTryRLock are acquisitions that never wait. The call
	// itself does not change the must-hold set (it may fail); the lock is
	// held from the *TryAcquired node the CFG places on the success branch
	// of an if that tests the call. Because the caller cannot be made to
	// wait, a TryLock contributes no lock-order edge and is not a blocking
	// operation.
	OpTryLock
	OpTryRLock
)

// HeldLock is one lockset entry.
type HeldLock struct {
	// Class identifies the mutex declaration — the struct field or variable
	// — independent of which instance is locked. Lock-order edges are
	// between classes.
	Class *types.Var
	// RLock marks a read lock (RWMutex.RLock): held for reads only.
	RLock bool
	// Pos is the acquisition site (entry annotations point at the func).
	Pos token.Pos
}

// LockSet is the must-hold set: a lock is in the set only when every path
// to this point acquired it and has not released it. Keys are canonical
// lock expressions (analysis.ExprKey of the mutex path, with embedded-field
// hops from method promotion spliced in), so `b.q.Lock()` and a guard
// declared against the promoted Mutex agree on `…b.q.Mutex`.
type LockSet map[string]HeldLock

func cloneLocks(s LockSet) LockSet {
	c := make(LockSet, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// joinLocks intersects src into dst (must-hold join) and reports change.
// A lock read-held on one path and write-held on the other joins to the
// weaker read claim.
func joinLocks(dst, src LockSet) bool {
	changed := false
	for k, d := range dst {
		s, ok := src[k]
		if !ok {
			delete(dst, k)
			changed = true
			continue
		}
		if s.RLock && !d.RLock {
			d.RLock = true
			dst[k] = d
			changed = true
		}
	}
	return changed
}

// MutexOp classifies a call expression. ok is false when the call is not a
// recognizable mutex/cond operation on a keyable lock expression.
func MutexOp(info *types.Info, call *ast.CallExpr) (op LockOp, key string, class *types.Var, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return OpNone, "", nil, false
	}
	selection := info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return OpNone, "", nil, false
	}
	fn, isFn := selection.Obj().(*types.Func)
	if !isFn {
		return OpNone, "", nil, false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return OpNone, "", nil, false
	}
	rt := analysis.Deref(types.Unalias(recv.Type()))
	switch {
	case analysis.IsNamed(rt, "sync", "Mutex"):
		switch fn.Name() {
		case "Lock":
			op = OpLock
		case "Unlock":
			op = OpUnlock
		case "TryLock":
			op = OpTryLock
		default:
			return OpNone, "", nil, false
		}
	case analysis.IsNamed(rt, "sync", "RWMutex"):
		switch fn.Name() {
		case "Lock":
			op = OpLock
		case "Unlock":
			op = OpUnlock
		case "RLock":
			op = OpRLock
		case "RUnlock":
			op = OpRUnlock
		case "TryLock":
			op = OpTryLock
		case "TryRLock":
			op = OpTryRLock
		default:
			return OpNone, "", nil, false
		}
	case analysis.IsNamed(rt, "sync", "Cond"):
		if fn.Name() != "Wait" {
			return OpNone, "", nil, false
		}
		op = OpWait
	default:
		return OpNone, "", nil, false
	}

	key, ok = analysis.ExprKey(info, sel.X)
	if !ok {
		return OpNone, "", nil, false
	}
	// The class is the mutex's declaration: the final field (or variable)
	// the receiver path names. Method promotion through embedded fields
	// shows up as a multi-entry selection index; splice the embedded hops
	// into the key so promoted `b.q.Lock()` and explicit `b.q.Mutex` agree.
	index := selection.Index()
	if len(index) > 1 {
		t := typeOf(info, sel.X)
		for _, idx := range index[:len(index)-1] {
			st, isStruct := analysis.Deref(types.Unalias(t)).Underlying().(*types.Struct)
			if !isStruct {
				return OpNone, "", nil, false
			}
			f := st.Field(idx)
			key += "." + f.Name()
			class = f
			t = f.Type()
		}
	} else {
		class = baseVar(info, sel.X)
	}
	if class == nil {
		return OpNone, "", nil, false
	}
	return op, key, class, true
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := info.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// baseVar resolves the variable or field an ident/selector chain ends at.
func baseVar(info *types.Info, e ast.Expr) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		v, _ := obj.(*types.Var)
		return v
	case *ast.SelectorExpr:
		if sel := info.Selections[e]; sel != nil {
			v, _ := sel.Obj().(*types.Var)
			return v
		}
		v, _ := info.Uses[e.Sel].(*types.Var)
		return v
	}
	return nil
}

// LockTransfer applies one flat node's effect on the lockset. Only
// statement-level Lock/Unlock calls and the success branch of a tested
// TryLock change it; a deferred Unlock keeps the lock held through the rest
// of the body (it runs at exit), and cond.Wait reacquires before returning.
func LockTransfer(info *types.Info, s LockSet, n ast.Node) {
	if ta, isTry := n.(*TryAcquired); isTry {
		op, key, class, ok := MutexOp(info, ta.Call)
		if ok && (op == OpTryLock || op == OpTryRLock) {
			s[key] = HeldLock{Class: class, RLock: op == OpTryRLock, Pos: ta.Call.Pos()}
		}
		return
	}
	es, isExpr := n.(*ast.ExprStmt)
	if !isExpr {
		return
	}
	call, isCall := es.X.(*ast.CallExpr)
	if !isCall {
		return
	}
	op, key, class, ok := MutexOp(info, call)
	if !ok {
		return
	}
	switch op {
	case OpLock:
		s[key] = HeldLock{Class: class, Pos: call.Pos()}
	case OpRLock:
		s[key] = HeldLock{Class: class, RLock: true, Pos: call.Pos()}
	case OpUnlock, OpRUnlock:
		delete(s, key)
	}
}

// Effects applies a summarized callee lock effect to the lockset at a
// statement-level call that is not itself a mutex operation. The lock-effect
// summary (LockFacts) provides one, so helper functions that net-acquire or
// net-release a lock are understood by must-hold walks.
type Effects func(s LockSet, call *ast.CallExpr)

// WalkLocked runs the must-hold lockset analysis over one function body and
// calls visit once per reachable flat node, in source order, with the
// node's pre-state. The state is reused across nodes: visitors must not
// retain it. visit must not recurse into nested *ast.FuncLit bodies — each
// literal is its own function and gets its own WalkLocked. After a flat
// node's own transfer, fx (when not nil) runs for every statement-level
// non-mutex call, letting callee lock effects flow into the set.
func WalkLocked(info *types.Info, body *ast.BlockStmt, entry LockSet, fx Effects, visit func(s LockSet, n ast.Node)) {
	f := &Flow[LockSet]{
		Graph: New(body),
		Entry: func() LockSet { return cloneLocks(entry) },
		Clone: cloneLocks,
		Join:  joinLocks,
		Transfer: func(s LockSet, n ast.Node, report bool) {
			if report {
				visit(s, n)
			}
			if fx != nil {
				if es, isExpr := n.(*ast.ExprStmt); isExpr {
					if call, isCall := es.X.(*ast.CallExpr); isCall {
						if _, _, _, isMutex := MutexOp(info, call); !isMutex {
							fx(s, call)
							return
						}
					}
				}
			}
			LockTransfer(info, s, n)
		},
	}
	f.Analyze()
}

// HoldsClass returns the first held lock whose class matches the predicate.
func (s LockSet) HoldsClass(pred func(*types.Var) bool) (string, HeldLock, bool) {
	// Deterministic scan: pick the smallest matching key.
	bestKey := ""
	var best HeldLock
	for k, h := range s {
		if pred(h.Class) && (bestKey == "" || k < bestKey) {
			bestKey, best = k, h
		}
	}
	return bestKey, best, bestKey != ""
}
