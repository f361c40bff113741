package locks

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/cfg"
)

// blockhold forbids blocking operations while a //mpmd:cpu mutex is
// held. Holding such a mutex models occupying a node's simulated processor:
// anything that can park the goroutine — channel operations, network I/O,
// time.Sleep, WaitGroup.Wait, a cond wait on some other lock, or an
// unbounded spin — stalls the CPU for every other goroutine queued on it.
//
// The lockset supplies the must-hold set at each statement, so operations
// after the Unlock (or on paths where the lock was released) are not
// flagged. Two blocking shapes are sanctioned:
//
//   - a select with a default clause is a poll, not a block
//   - Wait on the sync.Cond tied (//mpmdvet:cond) to the held CPU mutex
//     itself: Wait releases that lock while parked, which is the one
//     legitimate way to block "on CPU"
//
// The transitive layer consults a bottom-up may-block summary over the call
// graph: a call made while a CPU mutex is held, into an in-set callee that
// can block anywhere downstream, is reported with the witness chain down to
// the parking operation. Deferred calls and go statements are excluded on
// both layers (registering is instant; a spawned goroutine parks itself, not
// the CPU holder), as are calls through plain function values (no tracking —
// a documented bound of the analysis).

// collectPolls marks the comm statements of selects carrying a default
// clause under root.
func collectPolls(root ast.Node, nonBlocking map[ast.Stmt]bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, cl := range sel.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		for _, cl := range sel.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
				nonBlocking[cc.Comm] = true
			}
		}
		return true
	})
}

// blockNode checks one flat node against the pre-state; self is the enclosing
// function's call-graph node.
func (w *walker) blockNode(s cfg.LockSet, n ast.Node, self *callgraph.Node) {
	_, held, ok := s.HoldsClass(func(v *types.Var) bool { return w.annots.CPU[v] })
	if !ok {
		return
	}
	blockingOps(w.info, w.annots, w.polls, s, n,
		func(what string, pos token.Pos) { w.flag(pos, what, held) },
		func(call *ast.CallExpr) { w.transitive(call, held, self) })
}

// blockingOps calls op for every blocking operation written in flat node n
// itself, given its pre-state s, and call (when not nil) for every other call
// expression — one that may still block further down. polls holds the comm
// statements of selects that carry a default clause. Nested function literals
// are separate functions with their own locksets.
func blockingOps(info *types.Info, annots *cfg.Annotations, polls map[ast.Stmt]bool, s cfg.LockSet, n ast.Node,
	op func(what string, pos token.Pos), call func(*ast.CallExpr)) {
	switch n := n.(type) {
	case *cfg.Fall, *cfg.TryAcquired:
		return
	case *ast.DeferStmt, *ast.GoStmt:
		// Registering a defer or spawning a goroutine does not block.
		return
	case *ast.RangeStmt:
		// The flat node stands for the range expression only; body
		// statements are their own nodes.
		if t := typeOf(info, n.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				op("range over a channel", n.Pos())
			}
		}
		return
	case *ast.ForStmt:
		// A condition-less for is emitted as a marker node: an unbounded
		// loop entered with the CPU held never yields it.
		if n.Cond == nil {
			op("unbounded loop", n.Pos())
		}
		return
	}
	if stmt, isStmt := n.(ast.Stmt); isStmt && polls[stmt] {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			op("channel send", m.Arrow)
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				op("channel receive", m.Pos())
			}
		case *ast.CallExpr:
			if desc, blocking := classifyCall(info, annots, m, s); blocking {
				op(desc, m.Pos())
			} else if call != nil {
				call(m)
			}
		}
		return true
	})
}

// transitive reports a call into an in-set callee that can block downstream,
// with the witness chain to the parking operation.
func (w *walker) transitive(call *ast.CallExpr, held cfg.HeldLock, self *callgraph.Node) {
	if msg := w.blockFacts.At(w.graph.Sites[call], self, "blocking behavior"); msg != "" {
		w.flag(call.Pos(), msg, held)
	}
}

type blockFactsKey struct{}

// BlockFacts computes (once per Program) the may-block summary for every
// function in the analyzed set: the first parking operation each can reach.
func BlockFacts(prog *analysis.Program) callgraph.Witnesses {
	return prog.Fact(blockFactsKey{}, func() any {
		annots := map[*analysis.Package]*cfg.Annotations{}
		return callgraph.PropagateWitness(callgraph.Of(prog), func(n *callgraph.Node) (callgraph.Witness, bool) {
			a, ok := annots[n.Pkg]
			if !ok {
				a = cfg.CollectAnnotations(n.Pkg.Info, n.Pkg.Files)
				annots[n.Pkg] = a
			}
			return firstBlocking(n.Pkg, a, n.Decl), false
		}, func(k callgraph.Kind) bool {
			// References don't run here; spawned goroutines park themselves;
			// defers run at exit (registration is instant) — all excluded,
			// matching the intraprocedural layer.
			return k == callgraph.KindStatic || k == callgraph.KindInterface
		})
	}).(callgraph.Witnesses)
}

// firstBlocking returns the position-first blocking operation in fd's body,
// in the intraprocedural layer's vocabulary, regardless of held locks — the
// summary answers "can this callee park the goroutine at all"; the call-site
// check supplies the held-CPU context. Cond waits sanctioned by the
// function's own declared entry locks (//mpmdvet:locked on a //mpmd:cpu
// mutex with a tied cond) stay exempt.
func firstBlocking(pkg *analysis.Package, annots *cfg.Annotations, fd *ast.FuncDecl) (first callgraph.Witness) {
	polls := map[ast.Stmt]bool{}
	collectPolls(fd.Body, polls)
	entry := cfg.EntryLocks(pkg.Info, pkg.Pkg, fd, annots)
	cfg.WalkLocked(pkg.Info, fd.Body, entry, nil, func(s cfg.LockSet, n ast.Node) {
		blockingOps(pkg.Info, annots, polls, s, n, func(what string, pos token.Pos) {
			if first.What == "" || pos < first.Pos {
				first = callgraph.Witness{What: what, Pos: pos}
			}
		}, nil)
	})
	return first
}

// classifyCall reports whether the call is a blocking operation, with a
// human description. The lockset sanctions Cond.Wait on a held CPU mutex.
func classifyCall(info *types.Info, annots *cfg.Annotations, call *ast.CallExpr, s cfg.LockSet) (string, bool) {
	// Cond.Wait: blocking unless it waits on the held CPU lock itself.
	if op, condKey, class, ok := cfg.MutexOp(info, call); ok {
		if op != cfg.OpWait {
			// Lock/Unlock ordering is lockorder's concern, and a TryLock
			// never waits.
			return "", false
		}
		lockKey, known := condLock(annots, condKey, class)
		if !known {
			return "sync.Cond.Wait on a cond with no //mpmdvet:cond annotation", true
		}
		if h, isHeld := s[lockKey]; isHeld && annots.CPU[h.Class] {
			return "", false
		}
		return "sync.Cond.Wait on a lock other than the held CPU mutex", true
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	// Package-qualified calls: time.Sleep and anything in net.
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := info.Uses[id].(*types.PkgName); ok {
			path := pn.Imported().Path()
			if path == "time" && sel.Sel.Name == "Sleep" {
				return "time.Sleep", true
			}
			if path == "net" {
				return fmt.Sprintf("network call net.%s", sel.Sel.Name), true
			}
			return "", false
		}
	}
	// Method calls: WaitGroup.Wait and net.Conn (or any net type) methods.
	selection := info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return "", false
	}
	rt := analysis.Deref(types.Unalias(selection.Recv()))
	if analysis.IsNamed(rt, "sync", "WaitGroup") && sel.Sel.Name == "Wait" {
		return "sync.WaitGroup.Wait", true
	}
	if n, ok := types.Unalias(rt).(*types.Named); ok {
		if pkg := n.Obj().Pkg(); pkg != nil && pkg.Path() == "net" {
			return fmt.Sprintf("network I/O (%s.%s)", n.Obj().Name(), sel.Sel.Name), true
		}
	}
	return "", false
}

// condLock derives the lockset key of the mutex a cond is tied to: the
// cond's own key with its last segment replaced by the //mpmdvet:cond path.
func condLock(annots *cfg.Annotations, condKey string, class *types.Var) (string, bool) {
	path, ok := annots.Conds[class]
	if !ok {
		return "", false
	}
	i := strings.LastIndex(condKey, ".")
	if i < 0 {
		return "", false
	}
	return condKey[:i] + "." + path, true
}

func (w *walker) flag(pos token.Pos, desc string, held cfg.HeldLock) {
	w.reportf("blockhold", pos,
		"%s while holding %s, a //mpmd:cpu mutex: blocking operations stall the simulated CPU",
		desc, classLabel(w.pass.Fset, held.Class))
}
