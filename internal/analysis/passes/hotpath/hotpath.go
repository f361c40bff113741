// Package hotpath turns the benchmark-only 0 allocs/op gate into a
// compile-time check: a function whose doc comment carries the
// //mpmd:hotpath directive must not contain allocating constructs, and must
// not call anything in the analyzed set that does.
//
// What counts as allocating (conservatively, without the compiler's escape
// analysis):
//
//   - closure literals (captures allocate) and go statements
//   - &T{...}, map/slice composite literals, make, new
//   - append into anything but itself (the `x = append(x, …)` reuse idiom
//     amortizes to zero on the warm path and is allowed)
//   - calls into fmt, errors, sort, strconv, log
//   - non-constant string concatenation and string<->[]byte conversions
//   - boxing a non-pointer concrete value into an interface (call arguments,
//     assignments, returns)
//
// The transitive layer consults a bottom-up may-allocate summary over the
// call graph: a call from a hot function to an in-set callee that allocates
// anywhere downstream is reported with the full witness chain
// ("push → marshal → call into package fmt allocates (codec.go:42)").
// Interface calls are bounded by the implementers in the analyzed set; a
// hot-path interface call with zero in-set implementers is itself reported
// (whole-program runs only) because nothing was verified. Callees marked
// //mpmd:hotpath are trusted (their own check covers them); callees marked
// //mpmd:coldpath are exempt by declaration — the annotation documents that
// the function allocates by design and must not be reached from a warm
// path's steady state.
//
// Arguments of panic(...) are exempt: a panicking path is already off the
// warm path. Anything intentionally cold inside a hot function (trace hooks,
// slow-path branches) takes a //mpmdvet:ignore hotpath <reason> pragma so the
// exception is visible and counted.
package hotpath

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// Directive marks a function as warm-path: checked allocation-free.
const Directive = "//mpmd:hotpath"

// ColdDirective marks a function as allocating by design: the may-allocate
// summary treats it as clean so hot callers are not charged for it, on the
// declared understanding that warm steady-state traffic never reaches it.
const ColdDirective = "//mpmd:coldpath"

// allocPkgs are stdlib packages whose entry points allocate by design.
var allocPkgs = map[string]bool{
	"fmt":     true,
	"errors":  true,
	"sort":    true,
	"strconv": true,
	"log":     true,
}

var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "check that //mpmd:hotpath functions contain no allocating constructs " +
		"(closures, escaping composite literals, make/new, fmt, interface boxing, foreign append), " +
		"transitively through in-set callees not marked //mpmd:hotpath or //mpmd:coldpath",
	Run: run,
}

// Finding is one allocating construct in a function body, with the message
// the analyzer prints after its "hot path <fn>: " prefix.
type Finding struct {
	Pos  token.Pos
	What string
}

func run(pass *analysis.Pass) error {
	g := callgraph.Of(pass.Prog)
	facts := Facts(pass.Prog)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			hot := analysis.FuncDocHasDirective(fd.Doc, Directive)
			cold := analysis.FuncDocHasDirective(fd.Doc, ColdDirective)
			if hot && cold {
				pass.Reportf(fd.Pos(), "%s is marked both %s and %s", fd.Name.Name, Directive, ColdDirective)
				continue
			}
			if !hot {
				continue
			}
			for _, fnd := range Scan(pass.TypesInfo, fd) {
				pass.Reportf(fnd.Pos, "hot path %s: %s", fd.Name.Name, fnd.What)
			}
			transitive(pass, g, facts, fd)
		}
	}
	return nil
}

// transitive reports calls from a hot function into in-set callees whose
// may-allocate summary is dirty, with the witness chain down to the
// allocating construct. The walk mirrors Scan's exemptions: function-literal
// bodies (the literal itself was already flagged) and panic arguments.
func transitive(pass *analysis.Pass, g *callgraph.Graph, facts callgraph.Witnesses, fd *ast.FuncDecl) {
	self := g.NodeOf(pass.TypesInfo.Defs[fd.Name].(*types.Func))
	analysis.WalkStack(fd.Body, func(n ast.Node, _ []ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if isPanicCall(n) {
				return false
			}
			if msg := facts.At(g.Sites[n], self, "allocation-freedom"); msg != "" {
				pass.Reportf(n.Pos(), "hot path %s: %s", fd.Name.Name, msg)
			}
		}
		return true
	})
}

type allocFactsKey struct{}

// Facts computes (once per Program) the may-allocate summary for every
// function in the analyzed set: the first allocating construct each can reach.
func Facts(prog *analysis.Program) callgraph.Witnesses {
	return prog.Fact(allocFactsKey{}, func() any {
		return callgraph.PropagateWitness(callgraph.Of(prog), func(n *callgraph.Node) (callgraph.Witness, bool) {
			// Hot nodes are trusted clean: their own body is checked
			// directly, and their pragma-suppressed cold branches must not
			// cascade into callers. Cold nodes are exempt by declaration.
			if analysis.FuncDocHasDirective(n.Decl.Doc, Directive) ||
				analysis.FuncDocHasDirective(n.Decl.Doc, ColdDirective) {
				return callgraph.Witness{}, true
			}
			if findings := Scan(n.Pkg.Info, n.Decl); len(findings) > 0 {
				return callgraph.Witness{What: findings[0].What, Pos: findings[0].Pos}, false
			}
			return callgraph.Witness{}, false
		}, func(k callgraph.Kind) bool {
			return k != callgraph.KindMethodValue // a reference, not a call from this body
		})
	}).(callgraph.Witnesses)
}

// Scan returns the allocating constructs in fn's body, in source order, with
// messages matching what the analyzer reports (minus the "hot path <fn>: "
// prefix). It is the syntactic layer both the direct check and the
// may-allocate summary share.
func Scan(info *types.Info, fn *ast.FuncDecl) []Finding {
	c := &scanner{info: info, fn: fn}
	c.check(fn.Body)
	return c.out
}

type scanner struct {
	info *types.Info
	fn   *ast.FuncDecl
	out  []Finding
}

func (c *scanner) addf(pos token.Pos, format string, args ...any) {
	c.out = append(c.out, Finding{Pos: pos, What: fmt.Sprintf(format, args...)})
}

func (c *scanner) check(body *ast.BlockStmt) {
	analysis.WalkStack(body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.addf(n.Pos(), "closure literal allocates its captures")
			return false // don't double-report inside
		case *ast.GoStmt:
			c.addf(n.Pos(), "go statement allocates a goroutine")
		case *ast.CompositeLit:
			switch c.litKind(n, stack) {
			case litHeap:
				c.addf(n.Pos(), "composite literal escapes to the heap")
			case litMapOrSlice:
				c.addf(n.Pos(), "map/slice literal allocates")
			}
		case *ast.CallExpr:
			c.callExpr(n)
			if isPanicCall(n) {
				return false // panic args are off the warm path
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && c.isStringType(n) && !c.isConst(n) {
				c.addf(n.Pos(), "non-constant string concatenation allocates")
			}
		case *ast.AssignStmt:
			c.assign(n)
		case *ast.ReturnStmt:
			c.returns(n)
		}
		return true
	})
}

type litClass int

const (
	litStack litClass = iota
	litHeap
	litMapOrSlice
)

// litKind classifies a composite literal: map/slice literals always
// allocate; struct/array literals allocate only when their address is taken
// (the &T{...} parent) — a plain value literal lives on the stack.
func (c *scanner) litKind(lit *ast.CompositeLit, stack []ast.Node) litClass {
	tv, ok := c.info.Types[lit]
	if ok {
		switch tv.Type.Underlying().(type) {
		case *types.Map, *types.Slice:
			return litMapOrSlice
		}
	}
	if len(stack) > 0 {
		if u, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && u.Op == token.AND {
			return litHeap
		}
		// Nested inside another composite literal: classified at the root.
		if _, ok := stack[len(stack)-1].(*ast.CompositeLit); ok {
			return litStack
		}
		if kv, ok := stack[len(stack)-1].(*ast.KeyValueExpr); ok {
			_ = kv
			return litStack
		}
	}
	return litStack
}

func (c *scanner) callExpr(call *ast.CallExpr) {
	if isPanicCall(call) {
		return // panicking paths are off the warm path (subtree skipped by check)
	}
	flagged := false
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch fun.Name {
		case "make":
			if c.isBuiltin(fun) {
				c.addf(call.Pos(), "make allocates")
			}
		case "new":
			if c.isBuiltin(fun) {
				c.addf(call.Pos(), "new allocates")
			}
		case "append":
			if c.isBuiltin(fun) && !c.isSelfAppend(call) {
				c.addf(call.Pos(), "append into a foreign slice may grow and allocate (only `x = append(x, …)` reuse is allowed)")
			}
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if obj, ok := c.info.Uses[id].(*types.PkgName); ok && allocPkgs[obj.Imported().Path()] {
				c.addf(call.Pos(), "call into package %s allocates", obj.Imported().Path())
				flagged = true
			}
		}
	}
	// string<->[]byte conversions.
	if tv, ok := c.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type.Underlying()
		if argTv, ok := c.info.Types[call.Args[0]]; ok {
			from := argTv.Type.Underlying()
			if isString(to) && isByteSlice(from) || isByteSlice(to) && isString(from) {
				if argTv.Value == nil { // constant conversions fold away
					c.addf(call.Pos(), "string/[]byte conversion copies and allocates")
				}
			}
		}
	}
	// Interface boxing of call arguments (skipped when the call itself was
	// already flagged: one diagnostic per offending call is enough).
	if tv, ok := c.info.Types[call.Fun]; ok && !tv.IsType() && !flagged {
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
			c.checkArgsBoxing(call, sig)
		}
	}
}

func (c *scanner) checkArgsBoxing(call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			if s, ok := last.Underlying().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		c.boxing(arg, pt)
	}
}

// boxing reports converting a non-pointer concrete value into an interface:
// the value escapes into the interface's data word via a heap copy. Pointers,
// interfaces, and nil are free.
func (c *scanner) boxing(val ast.Expr, dst types.Type) {
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return
	}
	tv, ok := c.info.Types[ast.Unparen(val)]
	if !ok || tv.Type == nil {
		return
	}
	if tv.IsNil() || tv.Value != nil {
		return // nil and constants (folded / small-value cached) are quiet
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Chan, *types.Map, *types.Signature, *types.Slice:
		// Pointer-shaped (or already an interface): no box allocation.
		// Slices are 3 words — they do box — but flagging []byte payloads
		// passed to io-style interfaces drowns real signal; the fmt/pkg
		// checks catch the common cases.
		return
	}
	c.addf(val.Pos(), "boxing %s into interface %s allocates", tv.Type, dst)
}

func (c *scanner) assign(s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i := range s.Lhs {
		if lt, ok := c.info.Types[s.Lhs[i]]; ok {
			c.boxing(s.Rhs[i], lt.Type)
		}
	}
}

func (c *scanner) returns(s *ast.ReturnStmt) {
	sig := c.info.Defs[c.fn.Name]
	fn, ok := sig.(*types.Func)
	if !ok {
		return
	}
	results := fn.Type().(*types.Signature).Results()
	if results.Len() != len(s.Results) {
		return
	}
	for i, r := range s.Results {
		c.boxing(r, results.At(i).Type())
	}
}

// isSelfAppend reports the x = append(x, ...) reuse idiom; the enclosing
// assignment is found via the append call's position inside it.
func (c *scanner) isSelfAppend(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	dstKey, ok := analysis.ExprKey(c.info, call.Args[0])
	if !ok {
		return false
	}
	// Search upward is not available here; instead accept when the append's
	// first argument re-appears as an assignment LHS anywhere in the
	// function with this call as RHS. Cheap scan over the function body.
	found := false
	ast.Inspect(c.fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || found {
			return !found
		}
		for i, r := range as.Rhs {
			if ast.Unparen(r) == call && i < len(as.Lhs) {
				if lk, ok := analysis.ExprKey(c.info, as.Lhs[i]); ok && lk == dstKey {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

func (c *scanner) isBuiltin(id *ast.Ident) bool {
	_, ok := c.info.Uses[id].(*types.Builtin)
	return ok
}

func (c *scanner) isStringType(e ast.Expr) bool {
	tv, ok := c.info.Types[e]
	return ok && isString(tv.Type.Underlying())
}

func (c *scanner) isConst(e ast.Expr) bool {
	tv, ok := c.info.Types[e]
	return ok && tv.Value != nil
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func isPanicCall(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
