package cfg

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// The lock-effect summary: a bottom-up fixpoint over the call graph that
// gives every function two caller-resolvable locksets —
//
//   - Acquires: locks held at every exit but not at entry (the function nets
//     the caller these — a helper that wraps Lock);
//   - Releases: declared-held (//mpmdvet:locked) entry locks no longer held
//     at exit (a helper that wraps Unlock).
//
// Effects are expressed relative to the callee's receiver or parameters so
// a caller can re-resolve them against its own argument expressions; locks
// rooted anywhere else (globals, locals that escape) are not representable
// and drop out of the summary — a documented under-approximation, not an
// error.

// LockRef is one lock in a function's summary, in caller-resolvable form: a
// root (the receiver, or a parameter by index) plus the field path from the
// root to the mutex. Segs is nil when the root itself is the mutex (a
// *sync.Mutex parameter).
type LockRef struct {
	RecvRoot bool
	Param    int // parameter index when !RecvRoot
	Segs     []string
	RLock    bool
}

func refEqual(a, b LockRef) bool {
	if a.RecvRoot != b.RecvRoot || a.Param != b.Param || a.RLock != b.RLock || len(a.Segs) != len(b.Segs) {
		return false
	}
	for i := range a.Segs {
		if a.Segs[i] != b.Segs[i] {
			return false
		}
	}
	return true
}

func refsEqual(a, b []LockRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !refEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sortRefs(rs []LockRef) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].RecvRoot != rs[j].RecvRoot {
			return rs[i].RecvRoot
		}
		if rs[i].Param != rs[j].Param {
			return rs[i].Param < rs[j].Param
		}
		return strings.Join(rs[i].Segs, ".") < strings.Join(rs[j].Segs, ".")
	})
}

// LockFact is one function's lock-effect summary.
type LockFact struct {
	Acquires []LockRef
	Releases []LockRef
}

type lockFactsKey struct{}

// LockFacts computes the lock-effect summary of every function in the
// program's call graph, cached on the Program.
func LockFacts(prog *analysis.Program) map[*callgraph.Node]LockFact {
	return prog.Fact(lockFactsKey{}, func() any {
		g := callgraph.Of(prog)
		ls := &lockSummary{graph: g, annots: map[*analysis.Package]*Annotations{}}
		return callgraph.Propagate[LockFact](g, ls)
	}).(map[*callgraph.Node]LockFact)
}

type lockSummary struct {
	graph *callgraph.Graph
	// annots caches per-package annotations. These copies exist only to
	// resolve entry locksets; their Warnings are discarded (lockguard
	// reports warnings from its own per-package collection exactly once).
	annots map[*analysis.Package]*Annotations
}

func (ls *lockSummary) annotsOf(pkg *analysis.Package) *Annotations {
	a, ok := ls.annots[pkg]
	if !ok {
		a = CollectAnnotations(pkg.Info, pkg.Files)
		ls.annots[pkg] = a
	}
	return a
}

func (ls *lockSummary) Equal(a, b LockFact) bool {
	return refsEqual(a.Acquires, b.Acquires) && refsEqual(a.Releases, b.Releases)
}

func (ls *lockSummary) Compute(n *callgraph.Node, get func(*callgraph.Node) LockFact) LockFact {
	var fact LockFact
	fd := n.Decl
	if fd == nil || fd.Body == nil {
		return fact
	}
	pkg := n.Pkg
	a := ls.annotsOf(pkg)
	entry := EntryLocks(pkg.Info, pkg.Pkg, fd, a)
	fx := func(s LockSet, call *ast.CallExpr) {
		ApplyLockEffects(pkg.Info, pkg.Pkg, ls.graph, get, s, call)
	}
	exit, ok := exitLocks(pkg.Info, fd.Body, entry, fx)
	if ok {
		for key, h := range exit {
			if _, was := entry[key]; was {
				continue
			}
			if r, ok := keyToRef(fd, pkg.Info, key, h); ok {
				fact.Acquires = append(fact.Acquires, r)
			}
		}
		for key, h := range entry {
			if _, still := exit[key]; !still {
				if r, ok := keyToRef(fd, pkg.Info, key, h); ok {
					fact.Releases = append(fact.Releases, r)
				}
			}
		}
	}
	sortRefs(fact.Acquires)
	sortRefs(fact.Releases)
	return fact
}

// exitLocks joins the locksets at every reachable exit — return statements
// and the fall-off-the-brace node. ok is false when no exit is reachable
// (the function never returns; callers observe no effect).
func exitLocks(info *types.Info, body *ast.BlockStmt, entry LockSet, fx Effects) (LockSet, bool) {
	var exit LockSet
	found := false
	WalkLocked(info, body, entry, fx, func(s LockSet, n ast.Node) {
		switch n.(type) {
		case *Fall, *ast.ReturnStmt:
			if !found {
				exit = cloneLocks(s)
				found = true
			} else {
				joinLocks(exit, s)
			}
		}
	})
	return exit, found
}

// keyToRef converts a lockset key rooted at the function's receiver or a
// parameter back into caller-resolvable form. Keys rooted anywhere else
// (globals, locals) are not expressible and report ok=false.
func keyToRef(fd *ast.FuncDecl, info *types.Info, key string, h HeldLock) (LockRef, bool) {
	try := func(recvRoot bool, idx int, v *types.Var) (LockRef, bool) {
		vk := analysis.VarKey(v)
		if key == vk {
			return LockRef{RecvRoot: recvRoot, Param: idx, RLock: h.RLock}, true
		}
		if strings.HasPrefix(key, vk+".") {
			return LockRef{RecvRoot: recvRoot, Param: idx, Segs: strings.Split(key[len(vk)+1:], "."), RLock: h.RLock}, true
		}
		return LockRef{}, false
	}
	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			for _, id := range f.Names {
				if v, isVar := info.Defs[id].(*types.Var); isVar {
					if r, ok := try(true, 0, v); ok {
						return r, true
					}
				}
			}
		}
	}
	i := 0
	for _, f := range fd.Type.Params.List {
		if len(f.Names) == 0 {
			i++
			continue
		}
		for _, id := range f.Names {
			if v, isVar := info.Defs[id].(*types.Var); isVar {
				if r, ok := try(false, i, v); ok {
					return r, true
				}
			}
			i++
		}
	}
	return LockRef{}, false
}

// resolveRef maps one summary LockRef onto a call site: the lockset key (and
// the mutex's class declaration) the caller-side lock would have. ok is
// false when the argument expression is not keyable (a call result, an
// index expression) or the receiver path is a promoted-method hop.
func resolveRef(info *types.Info, pkg *types.Package, call *ast.CallExpr, r LockRef) (key string, class *types.Var, ok bool) {
	var root ast.Expr
	if r.RecvRoot {
		sel, isSel := call.Fun.(*ast.SelectorExpr)
		if !isSel {
			return "", nil, false
		}
		if s := info.Selections[sel]; s != nil && len(s.Index()) > 1 {
			// Promoted method: the declared receiver is an embedded field of
			// sel.X, so the root path differs. Splicing it is possible but
			// not needed yet; bail conservatively.
			return "", nil, false
		}
		root = sel.X
	} else {
		if r.Param >= len(call.Args) {
			return "", nil, false
		}
		root = call.Args[r.Param]
	}
	// Passing a lock is passing its address: &s.mu keys as s.mu, matching
	// the entry the caller's s.mu.Lock() put in the set.
	if u, isU := ast.Unparen(root).(*ast.UnaryExpr); isU && u.Op == token.AND {
		root = u.X
	}
	base, ok := analysis.ExprKey(info, root)
	if !ok {
		return "", nil, false
	}
	if len(r.Segs) == 0 {
		return base, baseVar(info, root), true
	}
	key, class, ok = resolveFieldPath(pkg, base, typeOf(info, root), r.Segs)
	if !ok || class == nil {
		return "", nil, false
	}
	return key, class, true
}

// SummaryEffects is the Effects hook for walking a package of prog: the
// program's lock-effect summary applied at every statement-level call.
func SummaryEffects(prog *analysis.Program, info *types.Info, tpkg *types.Package) Effects {
	g, facts := callgraph.Of(prog), LockFacts(prog)
	get := func(n *callgraph.Node) LockFact { return facts[n] }
	return func(s LockSet, call *ast.CallExpr) { ApplyLockEffects(info, tpkg, g, get, s, call) }
}

// ApplyLockEffects applies a call's summarized net lock effect to the
// caller's lockset. Only single static in-set callees are applied:
// interface calls, function values, and out-of-set callees have no visible
// effect (documented under-approximation).
func ApplyLockEffects(info *types.Info, tpkg *types.Package, g *callgraph.Graph, get func(*callgraph.Node) LockFact, s LockSet, call *ast.CallExpr) {
	site := g.Sites[call]
	if site == nil || site.Kind != callgraph.KindStatic || len(site.Callees) != 1 {
		return
	}
	f := get(site.Callees[0])
	for _, r := range f.Releases {
		if key, _, ok := resolveRef(info, tpkg, call, r); ok {
			delete(s, key)
		}
	}
	for _, r := range f.Acquires {
		if key, class, ok := resolveRef(info, tpkg, call, r); ok {
			s[key] = HeldLock{Class: class, RLock: r.RLock, Pos: call.Pos()}
		}
	}
}
