// Package bufown enforces the pooled wire.Buf ownership contract documented
// at the top of internal/wire/wire.go: Get/Copy hand back a buffer with
// refcount 1 and the caller owns it; ownership transfers on send (passing
// the buffer to a call, storing it into a message, returning it); handlers
// borrow the payload for the duration of the callback and must Retain before
// keeping it; Release ends an ownership, and touching the bytes after the
// final Release corrupts the pool.
//
// The pass runs a conservative flow-sensitive abstract interpretation per
// function body over the cfg package's basic-block graph, tracking each
// *wire.Buf-typed variable or field path through the states owned /
// borrowed / released / maybe-released / gone. The fixpoint driver joins
// states at merge points and around loop back edges; reporting happens in a
// single deterministic sweep against the converged entry states. It reports
// only definite violations (plus "may" wordings where one path releases and
// another does not):
//
//   - Release on a released buffer (double release), including an explicit
//     Release while a deferred Release is pending
//   - Bytes/Len/Retain or any other use of a buffer after its final Release
//   - storing a borrowed buffer into a field, global, composite literal, or
//     channel — or capturing it in an escaping closure — without Retain
//   - returning (or falling off the end of a function) while still owning a
//     buffer the function got from wire.Get/wire.Copy: the error-path leak
//
// Ownership transfer at call sites is driven by the per-function transfer
// summary (summary.go): a call with a single static in-set callee consults
// the callee's computed takes/returns-owned facts, so passing an owned
// buffer to a helper that only borrows it (reads Bytes/Len, never releases
// or forwards) keeps the release obligation with the caller — a leak the
// old hand-annotated transfer-in convention silently waved through.
// Interface calls, function values, and out-of-set callees keep the
// conservative convention: passing transfers, returned buffers are owned.
package bufown

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/cfg"
)

var Analyzer = &analysis.Analyzer{
	Name: "bufown",
	Doc: "check wire.Buf ownership flow: no double Release, no use after final Release, " +
		"no unretained stores of borrowed payload buffers, no owned-buffer leaks on return paths; " +
		"ownership transfer at call sites follows the callee's summarized takes/returns-owned facts",
	Run: run,
}

type state uint8

const (
	stUnknown  state = iota // widened / conflicting paths: no reports
	stOwned                 // this function holds the reference (wire.Get/Copy)
	stBorrowed              // borrowed payload field: no release obligation, no keeping without Retain
	stParam                 // *wire.Buf parameter: ownership transfers in by convention (send path)
	stReleased              // definitely released on every path here
	stMaybeRel              // released on some path
	stGone                  // ownership transferred away
)

// varInfo is the per-variable abstract state. The zero value (stUnknown, no
// flags) is the canonical "untracked": join treats an absent key as it.
type varInfo struct {
	st       state
	retained bool // Retain() seen: keeping a reference is legitimate
	deferred bool // a deferred Release covers function exit
}

// env maps ExprKey -> abstract state.
type env map[string]varInfo

func (e env) clone() env {
	c := make(env, len(e))
	for k, v := range e {
		c[k] = v
	}
	return c
}

// merge joins another branch outcome in place (no change reporting; the
// fixpoint join is joinEnv).
func (e env) merge(o env) {
	joinEnv(e, o)
}

// joinEnv folds src into dst and reports whether dst changed. Absent keys
// are the zero varInfo, and entries that join to it are dropped, so equal
// states compare equal structurally.
func joinEnv(dst, src env) bool {
	var zero varInfo
	changed := false
	for k, a := range dst {
		b := src[k] // zero when absent
		j := joinVar(a, b)
		if j == a {
			continue
		}
		changed = true
		if j == zero {
			delete(dst, k)
		} else {
			dst[k] = j
		}
	}
	for k, b := range src {
		if _, ok := dst[k]; ok {
			continue
		}
		if j := joinVar(varInfo{}, b); j != zero {
			dst[k] = j
			changed = true
		}
	}
	return changed
}

// joinVar is the state semilattice: released-ness on any path degrades to
// maybe-released (the absorbing "report may-wordings only" point);
// conflicting concrete states degrade to unknown (no reports).
func joinVar(a, b varInfo) varInfo {
	out := varInfo{retained: a.retained || b.retained, deferred: a.deferred || b.deferred}
	switch {
	case a.st == b.st:
		out.st = a.st
	case a.st == stReleased || b.st == stReleased ||
		a.st == stMaybeRel || b.st == stMaybeRel:
		out.st = stMaybeRel
	default:
		out.st = stUnknown
	}
	return out
}

func run(pass *analysis.Pass) error {
	if analysis.PkgPathMatches(pass.Pkg, "internal/wire") {
		return nil // the pool itself manipulates refcounts below the contract
	}
	g := callgraph.Of(pass.Prog)
	facts := Facts(pass.Prog)
	lookup := func(n *callgraph.Node) OwnFact { return facts[n] }
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			a := &analyzer{pass: pass, info: pass.TypesInfo, graph: g, facts: lookup}
			e := env{}
			// Seed parameters (including the receiver) of type *wire.Buf as
			// transfer-in ownership; borrowed payload fields seed lazily.
			seedFieldList(a, e, fd.Recv)
			seedFieldList(a, e, fd.Type.Params)
			a.runFlow(e, fd.Body, false)
			return false // nested FuncLits are analyzed by the closure logic
		})
	}
	return nil
}

func seedFieldList(a *analyzer, e env, fl *ast.FieldList) {
	if fl == nil {
		return
	}
	for _, field := range fl.List {
		for _, name := range field.Names {
			obj := a.info.Defs[name]
			if obj == nil || !isBufPtr(obj.Type()) {
				continue
			}
			if k, ok := analysis.ExprKey(a.info, name); ok {
				// The wire contract transfers ownership on send: a function
				// that accepts a naked *wire.Buf (SendBuf, DeliverRemote,
				// RequestOwned) owns or forwards it. Borrowing happens
				// through payload *fields* (m.PayloadBuf), seeded lazily.
				e[k] = varInfo{st: stParam}
			}
		}
	}
}

type analyzer struct {
	pass *analysis.Pass
	info *types.Info
	// graph and facts wire in the ownership-transfer summary: call sites
	// with a single static in-set callee consult the callee's OwnFact
	// instead of the blanket transfer-on-pass convention. Both may be nil
	// (then every call falls back to the convention).
	graph *callgraph.Graph
	facts func(*callgraph.Node) OwnFact
	// onReturn, when set, observes the env at each return statement before
	// results are marked transferred (the summary's returns-owned probe).
	onReturn func(e env, n *ast.ReturnStmt)
	// mute suppresses diagnostics while the fixpoint driver iterates; the
	// reporting sweep clears it so each violation fires exactly once.
	mute bool
}

// factFor resolves the ownership summary of a call's single static in-set
// callee. ok is false for interface calls, function values, multi-callee
// sites, and out-of-set callees — those keep the transfer-in convention.
func (a *analyzer) factFor(call *ast.CallExpr) (OwnFact, bool) {
	if a.graph == nil || a.facts == nil {
		return OwnFact{}, false
	}
	site := a.graph.Sites[call]
	if site == nil || site.Kind != callgraph.KindStatic || len(site.Callees) != 1 {
		return OwnFact{}, false
	}
	return a.facts(site.Callees[0]), true
}

// takes reports whether the call consumes ownership of argument i.
func (a *analyzer) takes(call *ast.CallExpr, i int) bool {
	f, ok := a.factFor(call)
	if !ok || i >= len(f.Takes) {
		return true // unknown callee or variadic tail: the old convention
	}
	return f.Takes[i]
}

func (a *analyzer) reportf(pos token.Pos, format string, args ...any) {
	if !a.mute {
		a.pass.Reportf(pos, format, args...)
	}
}

func isBufPtr(t types.Type) bool {
	p, ok := types.Unalias(t).Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	return analysis.IsNamed(p.Elem(), "internal/wire", "Buf")
}

// key returns the tracking key of e if it is a trackable *wire.Buf location,
// lazily seeding field paths (m.PayloadBuf and the like) as borrowed.
func (a *analyzer) key(en env, x ast.Expr) (string, bool) {
	x = ast.Unparen(x)
	tv, ok := a.info.Types[x]
	if !ok || !isBufPtr(tv.Type) {
		return "", false
	}
	k, ok := analysis.ExprKey(a.info, x)
	if !ok {
		return "", false
	}
	if _, seen := en[k]; !seen {
		en[k] = varInfo{st: stBorrowed}
	}
	return k, true
}

// ---- flow driving ----

// runFlow analyzes body as its own control-flow graph starting from entry,
// and returns the join of the states at every exit (returns and the fall
// off the closing brace). muted suppresses all diagnostics — used when a
// closure body is re-interpreted during the enclosing function's fixpoint
// iterations.
func (a *analyzer) runFlow(entry env, body *ast.BlockStmt, muted bool) env {
	var exit env
	f := &cfg.Flow[env]{
		Graph: cfg.New(body),
		Entry: entry.clone,
		Clone: env.clone,
		Join:  joinEnv,
		Transfer: func(e env, n ast.Node, report bool) {
			prev := a.mute
			a.mute = muted || !report
			a.transfer(e, n)
			a.mute = prev
			if report {
				switch n.(type) {
				case *ast.ReturnStmt, *cfg.Fall:
					if exit == nil {
						exit = e.clone()
					} else {
						exit.merge(e)
					}
				}
			}
		},
	}
	f.Analyze()
	if exit == nil {
		exit = env{}
	}
	return exit
}

// transfer interprets one flat CFG node.
func (a *analyzer) transfer(e env, n ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		a.assign(e, n)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var rhs ast.Expr
					if i < len(vs.Values) {
						rhs = vs.Values[i]
					}
					a.assignOne(e, name, rhs)
				}
			}
		}
	case *ast.ExprStmt:
		a.expr(e, n.X)
	case *ast.SendStmt:
		a.expr(e, n.Chan)
		a.expr(e, n.Value)
		if k, ok := a.key(e, n.Value); ok {
			a.storeEvent(e, k, n.Value.Pos(), "sends")
		}
	case *ast.DeferStmt:
		a.deferStmt(e, n)
	case *ast.GoStmt:
		a.expr(e, n.Call)
	case *ast.IncDecStmt:
		a.expr(e, n.X)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			a.expr(e, r)
		}
		if a.onReturn != nil {
			a.onReturn(e, n)
		}
		for _, r := range n.Results {
			if k, ok := a.key(e, r); ok {
				v := e[k]
				v.st = stGone // returning transfers ownership to the caller
				e[k] = v
			}
		}
		a.checkLeaks(e, n.Pos(), true)
	case *cfg.Fall:
		a.checkLeaks(e, n.Brace, false)
	case *ast.RangeStmt:
		a.expr(e, n.X)
	case *ast.ForStmt:
		// Condition-less loop marker: no data effect.
	case ast.Expr:
		// Decomposed conditions, switch tags, and case guards.
		a.expr(e, n)
	}
}

// ---- assignments, stores, and ownership transfer ----

func (a *analyzer) assign(e env, s *ast.AssignStmt) {
	for _, r := range s.Rhs {
		a.expr(e, r)
	}
	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Lhs {
			a.assignOne(e, s.Lhs[i], s.Rhs[i])
		}
		return
	}
	// Multi-value RHS (call or comma-ok): each buf-typed LHS becomes unknown.
	for _, l := range s.Lhs {
		a.assignOne(e, l, nil)
	}
}

func (a *analyzer) assignOne(e env, lhs ast.Expr, rhs ast.Expr) {
	lhs = ast.Unparen(lhs)
	// Reassigning any location invalidates tracked buffer paths under it:
	// after `f, ok = q.Pop()` the old state of f.buf says nothing about the
	// new frame's buffer.
	if lk, ok := analysis.ExprKey(a.info, lhs); ok {
		for k := range e {
			if strings.HasPrefix(k, lk+".") {
				delete(e, k)
			}
		}
	}
	lt := a.lhsType(lhs)
	if lt == nil || !isBufPtr(lt) {
		return
	}

	// Storing into a field / global / element is an escape of the RHS value.
	if rhs != nil {
		if rk, ok := a.key(e, rhs); ok && isEscapingLHS(a.info, lhs) {
			a.storeEvent(e, rk, rhs.Pos(), "stores")
		}
	}

	lk, trackable := analysis.ExprKey(a.info, lhs)
	if !trackable {
		return
	}
	switch {
	case rhs == nil:
		e[lk] = varInfo{st: stUnknown}
	case isNil(rhs):
		delete(e, lk)
	default:
		if rk, ok := a.key(e, rhs); ok {
			// Alias: the LHS inherits the source's state; the source keeps
			// its own (they now alias — we stay conservative about that by
			// leaving both tracked; releases through either are still
			// individually checked).
			e[lk] = e[rk]
			return
		}
		if call, isCall := ast.Unparen(rhs).(*ast.CallExpr); isCall {
			// A call handing back a *wire.Buf confers ownership (wire.Get,
			// wire.Copy, or any constructor following the contract) — unless
			// the callee's summary says the result is a borrow (it hands out
			// someone else's payload).
			st := stOwned
			if f, ok := a.factFor(call); ok && len(f.ReturnsOwned) == 1 && !f.ReturnsOwned[0] {
				st = stBorrowed
			}
			e[lk] = varInfo{st: st}
			return
		}
		e[lk] = varInfo{st: stUnknown}
	}
}

// lhsType resolves the type of an assignment target. Idents on the left of
// := are absent from info.Types, so they resolve through Defs/Uses.
func (a *analyzer) lhsType(lhs ast.Expr) types.Type {
	if id, ok := lhs.(*ast.Ident); ok {
		obj := a.info.Defs[id]
		if obj == nil {
			obj = a.info.Uses[id]
		}
		if obj == nil {
			return nil
		}
		return obj.Type()
	}
	if tv, ok := a.info.Types[lhs]; ok {
		return tv.Type
	}
	return nil
}

// isEscapingLHS reports whether assigning to lhs publishes the value beyond
// the current activation: a field selector, an index expression, a
// dereference, or a package-level variable.
func isEscapingLHS(info *types.Info, lhs ast.Expr) bool {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr, *ast.StarExpr:
		return true
	case *ast.Ident:
		obj := info.Defs[l]
		if obj == nil {
			obj = info.Uses[l]
		}
		if v, ok := obj.(*types.Var); ok {
			return v.Parent() == v.Pkg().Scope() // package-level var
		}
	}
	return false
}

func isNil(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// storeEvent handles a buffer value escaping into longer-lived storage.
// Owned: ownership transfers (fine). Borrowed without Retain: violation.
// Released: use after release.
func (a *analyzer) storeEvent(e env, k string, pos token.Pos, verb string) {
	v := e[k]
	switch v.st {
	case stOwned, stParam:
		v.st = stGone
		e[k] = v
	case stBorrowed:
		if !v.retained {
			a.reportf(pos,
				"%s a borrowed payload buffer beyond the handler without Retain: the pool reclaims it when the dispatcher releases (wire.Buf contract, internal/wire/wire.go)", verb)
		}
	case stReleased:
		a.reportf(pos, "%s a wire.Buf after its final Release", verb)
	}
}

// ---- expression interpretation ----

// expr walks an expression, firing ownership events for method calls,
// argument transfers, composite-literal stores, and closures.
func (a *analyzer) expr(e env, x ast.Expr) {
	switch x := ast.Unparen(x).(type) {
	case nil:
	case *ast.CallExpr:
		a.call(e, x)
	case *ast.FuncLit:
		a.closure(e, x, false)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			val := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				val = kv.Value
			}
			a.expr(e, val)
			if k, ok := a.key(e, val); ok {
				a.storeEvent(e, k, val.Pos(), "stores")
			}
		}
	case *ast.UnaryExpr:
		a.expr(e, x.X)
	case *ast.BinaryExpr:
		a.expr(e, x.X)
		a.expr(e, x.Y)
	case *ast.StarExpr:
		a.expr(e, x.X)
	case *ast.IndexExpr:
		a.expr(e, x.X)
		a.expr(e, x.Index)
	case *ast.SliceExpr:
		a.expr(e, x.X)
	case *ast.TypeAssertExpr:
		a.expr(e, x.X)
	case *ast.SelectorExpr:
		// Field read through a tracked buffer (b.anything) or a tracked
		// path itself: a read after final Release is a use-after-release.
		if k, ok := a.key(e, x.X); ok {
			a.useEvent(e, k, x.Pos(), "accesses")
		}
	}
}

// call interprets a call expression: Retain/Release/Bytes/Len method events
// on tracked buffers, and ownership transfer for buffers passed as args.
func (a *analyzer) call(e env, call *ast.CallExpr) {
	// Method events on a tracked receiver.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if k, ok := a.key(e, sel.X); ok {
			switch sel.Sel.Name {
			case "Release":
				a.releaseEvent(e, k, call.Pos(), false)
			case "Retain":
				a.useEvent(e, k, call.Pos(), "retains")
				v := e[k]
				v.retained = true
				e[k] = v
			default: // Bytes, Len, ...
				a.useEvent(e, k, call.Pos(), "calls "+sel.Sel.Name+" on")
			}
			for _, arg := range call.Args {
				a.expr(e, arg)
			}
			return
		}
	}
	a.expr(e, call.Fun)
	for i, arg := range call.Args {
		if fl, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			a.closure(e, fl, true) // closure handed to a callee: escapes
			continue
		}
		a.expr(e, arg)
		if k, ok := a.key(e, arg); ok {
			v := e[k]
			switch v.st {
			case stOwned, stParam:
				// Passing an owned buffer is the send/transfer idiom: the
				// callee now owns it — unless its summary proves it only
				// borrows the argument, in which case the caller keeps the
				// release obligation.
				if a.takes(call, i) {
					v.st = stGone
					e[k] = v
				}
			case stReleased:
				a.reportf(arg.Pos(), "passes a wire.Buf after its final Release")
			}
		}
	}
}

// closure analyzes a function literal. Captured tracked buffers keep their
// outer keys; an escaping closure capturing a borrowed, unretained buffer is
// a violation (the buffer may be reclaimed before the closure runs), and an
// owned buffer captured by an escaping closure transfers ownership into it.
func (a *analyzer) closure(e env, fl *ast.FuncLit, escapes bool) {
	inner := e.clone()
	seedFieldList(a, inner, fl.Type.Params)
	if escapes {
		captured := capturedKeys(a, e, fl)
		for _, k := range captured {
			v := e[k]
			switch v.st {
			case stBorrowed:
				if !v.retained {
					a.reportf(fl.Pos(),
						"closure escapes with a borrowed payload buffer captured without Retain: the pool may reclaim it before the closure runs")
				}
			case stOwned, stParam:
				v.st = stGone // the closure body is now responsible for it
				e[k] = v
			case stReleased:
				a.reportf(fl.Pos(), "closure captures a wire.Buf after its final Release")
			}
		}
		// The closure runs later, against state we cannot order: analyze its
		// body only for local (inner) violations, with captured state reset.
		for _, k := range captured {
			inner[k] = varInfo{st: stUnknown, retained: e[k].retained}
		}
	}
	exit := a.runFlow(inner, fl.Body, a.mute)
	if !escapes {
		// Immediately-invoked literal: releases inside it happened.
		for k, v := range exit {
			if _, outer := e[k]; outer {
				e[k] = v
			}
		}
	}
}

// capturedKeys returns the keys of *wire.Buf locations the literal
// references from the enclosing scope (root variable declared outside the
// literal), lazily seeding previously-untouched payload fields so a closure
// can be the buffer's first use.
func capturedKeys(a *analyzer, e env, fl *ast.FuncLit) []string {
	seen := map[string]bool{}
	var out []string
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		x, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		root := rootIdent(x)
		if root == nil {
			return true
		}
		obj := a.info.Uses[root]
		if obj == nil {
			obj = a.info.Defs[root]
		}
		if obj == nil || (fl.Pos() <= obj.Pos() && obj.Pos() <= fl.End()) {
			return true // declared inside the literal: not a capture
		}
		if k, ok := a.key(e, x); ok && !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
		return true
	})
	return out
}

// rootIdent returns the base identifier of an ident/selector chain.
func rootIdent(x ast.Expr) *ast.Ident {
	for {
		switch e := ast.Unparen(x).(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			x = e.X
		default:
			return nil
		}
	}
}

// deferStmt marks deferred Releases (they cover every exit) and analyzes
// other deferred calls normally.
func (a *analyzer) deferStmt(e env, s *ast.DeferStmt) {
	marked := false
	if sel, ok := s.Call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Release" {
		if k, ok := a.key(e, sel.X); ok {
			v := e[k]
			v.deferred = true
			e[k] = v
			marked = true
		}
	}
	if fl, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		// defer func() { b.Release() }(): find releases of tracked keys.
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Release" {
				if k, ok := analysis.ExprKey(a.info, sel.X); ok {
					if _, tracked := e[k]; tracked {
						v := e[k]
						v.deferred = true
						e[k] = v
						marked = true
					}
				}
			}
			return true
		})
		return
	}
	if !marked {
		a.expr(e, s.Call)
	}
}

// releaseEvent fires for an explicit b.Release().
func (a *analyzer) releaseEvent(e env, k string, pos token.Pos, viaDefer bool) {
	v := e[k]
	switch v.st {
	case stReleased:
		a.reportf(pos, "wire.Buf released twice on this path")
		return
	case stMaybeRel:
		a.reportf(pos, "wire.Buf may already be released on some path reaching this Release")
		return
	case stGone:
		// Ownership was transferred; releasing now double-frees somewhere
		// downstream — but aliasing makes this too noisy to assert. Skip.
		return
	}
	if v.deferred && !viaDefer {
		a.reportf(pos, "explicit Release with a deferred Release pending: the buffer is released twice at function exit")
		return
	}
	v.st = stReleased
	e[k] = v
}

// useEvent fires for any read/method use of a tracked buffer.
func (a *analyzer) useEvent(e env, k string, pos token.Pos, verb string) {
	switch e[k].st {
	case stReleased:
		a.reportf(pos, "%s a wire.Buf after its final Release: the pool may have reissued it", verb)
	}
}

// checkLeaks reports owned, unreleased, untransferred buffers at an exit
// point; atReturn distinguishes the message wording.
func (a *analyzer) checkLeaks(e env, pos token.Pos, atReturn bool) {
	for _, v := range e {
		if v.st == stOwned && !v.deferred && !v.retained {
			where := "at end of function"
			if atReturn {
				where = "on this return path"
			}
			a.reportf(pos,
				"owned wire.Buf leaks %s: release it or transfer ownership before returning (wire pool contract)", where)
		}
	}
}
