// Package callgraph builds a call graph over the package set a driver
// invocation loaded, and runs bottom-up summary computations over it. It is
// the whole-program layer under mpmdvet's transitive passes: hotpath,
// blockhold, lockguard, and bufown consult per-function summaries (may
// allocate, may block, lock effects, buffer-ownership transfer) computed
// here instead of stopping at call boundaries.
//
// Nodes are the functions and methods declared with bodies in the analyzed
// set. Because each package is type-checked separately, the *types.Func for
// a function seen from its own sources and the one reconstructed from a
// dependency's export data are distinct objects — nodes are therefore keyed
// by FuncKey, a stable string identity (package path + receiver + name), and
// call sites resolve through it.
//
// Edges cover static calls (package functions, methods, generic
// instantiations via their origin), method values and function references
// passed as values, and the calls under `go` and `defer`. Interface calls
// are bounded CHA-style: the candidate callees are the declared methods of
// every concrete type in the analyzed set that implements the interface; a
// site with zero in-set implementers is recorded as unresolved so passes can
// warn instead of silently passing. Calls through plain function values
// remain unresolved (no dataflow tracking), which transitive passes document
// as a bound of the analysis.
//
// Function literals are not graph nodes: creating a closure is itself an
// allocation witness (hotpath flags the literal), and the lock passes
// analyze literal bodies as their own functions. Call sites inside literals
// are still registered in Sites so call-site checks (helper lock effects,
// blocking callees) cover them, but they do not contribute edges to the
// enclosing declaration's summary.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Kind classifies one edge.
type Kind uint8

const (
	// KindStatic is a direct call of a known function or method.
	KindStatic Kind = iota
	// KindInterface is a call through an interface method, expanded to one
	// edge per in-set implementer.
	KindInterface
	// KindMethodValue is a function or method referenced as a value (passed
	// as a callback, stored); it may be invoked later, from anywhere.
	KindMethodValue
	// KindGo is the call of a go statement: it runs on a new goroutine.
	KindGo
	// KindDefer is the call of a defer statement: it runs at function exit
	// on the same goroutine.
	KindDefer
)

func (k Kind) String() string {
	switch k {
	case KindStatic:
		return "static"
	case KindInterface:
		return "interface"
	case KindMethodValue:
		return "method-value"
	case KindGo:
		return "go"
	case KindDefer:
		return "defer"
	}
	return "?"
}

// Node is one in-set function or method, with its defining declaration.
type Node struct {
	Key  string
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *analysis.Package
	// Out is the node's outgoing edges in source order. Calls inside nested
	// function literals are excluded (see the package comment).
	Out []Edge
	// Unresolved records dynamic sites in this function the graph cannot
	// bound: interface calls with zero in-set implementers and calls through
	// function values.
	Unresolved []Unresolved
}

// Name renders the node for diagnostics: "(*shmTx).send" or "dispatchLocal".
func (n *Node) Name() string {
	sig := n.Fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		ptr := ""
		if p, ok := types.Unalias(t).(*types.Pointer); ok {
			ptr, t = "*", p.Elem()
		}
		if named, ok := types.Unalias(t).(*types.Named); ok {
			return "(" + ptr + named.Obj().Name() + ")." + n.Fn.Name()
		}
	}
	return n.Fn.Name()
}

// Edge is one resolved call or reference from a node.
type Edge struct {
	Callee *Node
	// Site is the call expression, or the referencing expression for
	// KindMethodValue edges.
	Site ast.Node
	Kind Kind
}

// Unresolved is one dynamic site the graph cannot bound.
type Unresolved struct {
	Pos token.Pos
	// Reason is a human description ("interface call Transport.SendBuf has
	// no implementers in the analyzed packages", "call through a function
	// value").
	Reason string
	// NoImpl marks the interface-with-zero-implementers case specifically.
	NoImpl bool
}

// Site describes the in-set callees of one call expression, indexed so
// passes can resolve any call they walk past (including calls inside
// function literals, which have no edges).
type Site struct {
	Callees []*Node
	Kind    Kind
	// Iface labels interface calls ("Transport.SendBuf") for diagnostics.
	Iface string
	// NoImpl marks an interface call with zero in-set implementers.
	NoImpl bool
}

// Graph is the call graph over one Program.
type Graph struct {
	// Nodes maps FuncKey to node for every function declared with a body in
	// the analyzed set.
	Nodes map[string]*Node
	// Sites maps every resolvable call expression in the set to its callees.
	Sites map[*ast.CallExpr]*Site
	// SCCs is the condensation in bottom-up order: every SCC appears after
	// the SCCs it calls into, so one in-order sweep sees callee summaries
	// before caller summaries. Node order within and across SCCs is
	// deterministic (packages by ID, declarations by source order).
	SCCs [][]*Node

	ordered []*Node
}

// FuncKey is the stable cross-package identity of a function: generic
// instantiations share their origin's key (the origin declaration is the
// body the summaries analyze).
func FuncKey(fn *types.Func) string {
	fn = fn.Origin()
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil {
		if recv := sig.Recv(); recv != nil {
			t := recv.Type()
			ptr := ""
			if p, ok := types.Unalias(t).(*types.Pointer); ok {
				ptr, t = "*", p.Elem()
			}
			name := "?"
			if named, ok := types.Unalias(t).(*types.Named); ok {
				name = named.Origin().Obj().Name()
			}
			return pkg + ".(" + ptr + name + ")." + fn.Name()
		}
	}
	return pkg + "." + fn.Name()
}

type graphFactKey struct{}

// Of returns the Program's call graph, building it on first request and
// caching it for every subsequent pass.
func Of(prog *analysis.Program) *Graph {
	return prog.Fact(graphFactKey{}, func() any { return Build(prog) }).(*Graph)
}

// Build constructs the graph over every package in prog.
func Build(prog *analysis.Program) *Graph {
	g := &Graph{Nodes: map[string]*Node{}, Sites: map[*ast.CallExpr]*Site{}}
	b := &builder{g: g, ifaceCache: map[ifaceQuery][]*Node{}}

	// Nodes first, so edge resolution can look any function up regardless of
	// declaration order across packages.
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{Key: FuncKey(fn), Fn: fn, Decl: fd, Pkg: pkg}
				if _, dup := g.Nodes[n.Key]; dup {
					continue // e.g. GOOS-conditioned duplicates; keep the first
				}
				g.Nodes[n.Key] = n
				g.ordered = append(g.ordered, n)
			}
		}
	}

	// CHA candidates: every non-generic concrete named type declared at
	// package scope in the set, in deterministic order.
	for _, pkg := range prog.Pkgs {
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			b.concrete = append(b.concrete, named)
		}
	}

	for _, n := range g.ordered {
		b.edges(n)
	}
	g.condense()
	return g
}

type ifaceQuery struct {
	iface  *types.Interface
	method string
}

type builder struct {
	g          *Graph
	concrete   []*types.Named
	ifaceCache map[ifaceQuery][]*Node
}

// edges walks one declaration body resolving calls and function references.
func (b *builder) edges(n *Node) {
	info := n.Pkg.Info
	analysis.WalkStack(n.Decl.Body, func(x ast.Node, stack []ast.Node) bool {
		// Sites inside function literals are still registered (call-site
		// checks need them) but contribute no edges: the literal's own
		// existence is what the summaries account for.
		inLit := false
		for _, a := range stack {
			if _, ok := a.(*ast.FuncLit); ok {
				inLit = true
				break
			}
		}
		switch x := x.(type) {
		case *ast.CallExpr:
			kind := KindStatic
			if len(stack) > 0 {
				switch p := stack[len(stack)-1].(type) {
				case *ast.GoStmt:
					if p.Call == x {
						kind = KindGo
					}
				case *ast.DeferStmt:
					if p.Call == x {
						kind = KindDefer
					}
				}
			}
			b.call(n, info, x, kind, inLit)
		case *ast.Ident:
			if b.isValueRef(info, x, stack) {
				if fn, ok := info.Uses[x].(*types.Func); ok {
					b.valueRef(n, x, fn, inLit)
				}
			}
		case *ast.SelectorExpr:
			if b.isValueRef(info, x, stack) {
				b.selectorValueRef(n, info, x, inLit)
			}
		}
		return true
	})
}

// isValueRef reports whether expr x sits in value position rather than being
// the function operand of a call or a component of an enclosing selector.
func (b *builder) isValueRef(info *types.Info, x ast.Expr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return true
	}
	switch p := stack[len(stack)-1].(type) {
	case *ast.CallExpr:
		return ast.Unparen(p.Fun) != x
	case *ast.SelectorExpr:
		return false // the enclosing selector is the unit that resolves
	case *ast.ParenExpr:
		if len(stack) >= 2 {
			if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok {
				return ast.Unparen(call.Fun) != p
			}
		}
	}
	return true
}

// valueRef adds a method-value edge for a function referenced as a value.
func (b *builder) valueRef(n *Node, site ast.Node, fn *types.Func, inLit bool) {
	callee, ok := b.g.Nodes[FuncKey(fn)]
	if !ok || inLit {
		return
	}
	n.Out = append(n.Out, Edge{Callee: callee, Site: site, Kind: KindMethodValue})
}

func (b *builder) selectorValueRef(n *Node, info *types.Info, sel *ast.SelectorExpr, inLit bool) {
	if s := info.Selections[sel]; s != nil {
		if s.Kind() != types.MethodVal && s.Kind() != types.MethodExpr {
			return
		}
		fn, ok := s.Obj().(*types.Func)
		if !ok {
			return
		}
		if types.IsInterface(s.Recv()) {
			// A bound interface-method value: expand like an interface call.
			if impls := b.implementers(s.Recv(), fn.Name()); len(impls) > 0 && !inLit {
				for _, impl := range impls {
					n.Out = append(n.Out, Edge{Callee: impl, Site: sel, Kind: KindMethodValue})
				}
			}
			return
		}
		b.valueRef(n, sel, fn, inLit)
		return
	}
	// Qualified reference pkg.F used as a value.
	if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
		b.valueRef(n, sel, fn, inLit)
	}
}

// call resolves one call expression, registering its Site and (outside
// literals) its edges.
func (b *builder) call(n *Node, info *types.Info, call *ast.CallExpr, kind Kind, inLit bool) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	fun := ast.Unparen(call.Fun)
	// Generic instantiation: unwrap the index expression to the named
	// operand; info.Uses maps it to the origin function.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}

	switch fun := fun.(type) {
	case *ast.Ident:
		obj := info.Uses[fun]
		switch obj := obj.(type) {
		case *types.Func:
			b.static(n, info, call, obj, kind, inLit)
		case *types.Builtin, *types.TypeName, nil:
			// Builtins and conversions: no callee.
		default:
			// A variable of function type: dynamic.
			if _, isVar := obj.(*types.Var); isVar && !inLit {
				n.Unresolved = append(n.Unresolved, Unresolved{
					Pos:    call.Pos(),
					Reason: fmt.Sprintf("call through function value %s", fun.Name),
				})
			}
		}
	case *ast.SelectorExpr:
		if s := info.Selections[fun]; s != nil {
			switch s.Kind() {
			case types.MethodVal, types.MethodExpr:
				fn, ok := s.Obj().(*types.Func)
				if !ok {
					return
				}
				if s.Kind() == types.MethodVal && types.IsInterface(s.Recv()) {
					b.ifaceCall(n, call, s.Recv(), fn, kind, inLit)
					return
				}
				b.static(n, info, call, fn, kind, inLit)
			case types.FieldVal:
				// Calling a function-typed field: dynamic.
				if !inLit {
					n.Unresolved = append(n.Unresolved, Unresolved{
						Pos:    call.Pos(),
						Reason: fmt.Sprintf("call through function-typed field %s", fun.Sel.Name),
					})
				}
			}
			return
		}
		// Package-qualified: pkg.F.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			b.static(n, info, call, fn, kind, inLit)
		}
	case *ast.FuncLit:
		// Immediately-invoked literal: the literal body is analyzed on its
		// own by the passes that care; no edge.
	}
}

func (b *builder) static(n *Node, info *types.Info, call *ast.CallExpr, fn *types.Func, kind Kind, inLit bool) {
	callee, ok := b.g.Nodes[FuncKey(fn)]
	if !ok {
		return // out-of-set: stdlib or export-data-only
	}
	b.g.Sites[call] = &Site{Callees: []*Node{callee}, Kind: kind}
	if !inLit {
		n.Out = append(n.Out, Edge{Callee: callee, Site: call, Kind: kind})
	}
}

func (b *builder) ifaceCall(n *Node, call *ast.CallExpr, recv types.Type, fn *types.Func, kind Kind, inLit bool) {
	label := fn.Name()
	if named, ok := types.Unalias(recv).(*types.Named); ok {
		label = named.Obj().Name() + "." + fn.Name()
	}
	impls := b.implementers(recv, fn.Name())
	site := &Site{Callees: impls, Kind: KindInterface, Iface: label, NoImpl: len(impls) == 0}
	b.g.Sites[call] = site
	if inLit {
		return
	}
	if len(impls) == 0 {
		n.Unresolved = append(n.Unresolved, Unresolved{
			Pos:    call.Pos(),
			Reason: fmt.Sprintf("interface call %s has no implementers in the analyzed packages", label),
			NoImpl: true,
		})
		return
	}
	for _, impl := range impls {
		n.Out = append(n.Out, Edge{Callee: impl, Site: call, Kind: KindInterface})
	}
}

// implementers returns the in-set method bodies satisfying an interface
// method: for each concrete named type in the set implementing the
// interface (directly or through its pointer type), the method the call
// would dispatch to, when that method's body is in the set.
func (b *builder) implementers(recv types.Type, method string) []*Node {
	iface, ok := types.Unalias(recv).Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	q := ifaceQuery{iface: iface, method: method}
	if cached, ok := b.ifaceCache[q]; ok {
		return cached
	}
	var out []*Node
	seen := map[*Node]bool{}
	for _, named := range b.concrete {
		if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), method)
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if node, ok := b.g.Nodes[FuncKey(fn)]; ok && !seen[node] {
			seen[node] = true
			out = append(out, node)
		}
	}
	b.ifaceCache[q] = out
	return out
}

// condense runs Tarjan's SCC algorithm over the edge relation; the emission
// order of Tarjan is bottom-up (an SCC is completed only after every SCC it
// reaches), which is exactly the summary-propagation order.
func (g *Graph) condense() {
	index := map[*Node]int{}
	low := map[*Node]int{}
	onStack := map[*Node]bool{}
	var stack []*Node
	next := 0

	var strong func(n *Node)
	strong = func(n *Node) {
		index[n] = next
		low[n] = next
		next++
		stack = append(stack, n)
		onStack[n] = true
		for _, e := range n.Out {
			m := e.Callee
			if _, seen := index[m]; !seen {
				strong(m)
				if low[m] < low[n] {
					low[n] = low[m]
				}
			} else if onStack[m] && index[m] < low[n] {
				low[n] = index[m]
			}
		}
		if low[n] == index[n] {
			var scc []*Node
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[m] = false
				scc = append(scc, m)
				if m == n {
					break
				}
			}
			// Deterministic member order within the component.
			sort.Slice(scc, func(i, j int) bool { return scc[i].Key < scc[j].Key })
			g.SCCs = append(g.SCCs, scc)
		}
	}
	for _, n := range g.ordered {
		if _, seen := index[n]; !seen {
			strong(n)
		}
	}
}

// NodeOf resolves the in-set node a *types.Func (from any package's view)
// corresponds to.
func (g *Graph) NodeOf(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.Nodes[FuncKey(fn)]
}

// ChainString renders a witness chain for diagnostics: the node names joined
// with arrows, ending in the leaf description and its position, e.g.
// "push → marshal → call into package fmt allocates (codec.go:42)".
func ChainString(chain []*Node, leafWhat string, leafPos token.Pos) string {
	var sb strings.Builder
	for _, n := range chain {
		sb.WriteString(n.Name())
		sb.WriteString(" → ")
	}
	sb.WriteString(leafWhat)
	if len(chain) > 0 && leafPos.IsValid() {
		pos := chain[len(chain)-1].Pkg.Fset.Position(leafPos)
		fmt.Fprintf(&sb, " (%s:%d)", shortFile(pos.Filename), pos.Line)
	}
	return sb.String()
}

func shortFile(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
