package callgraph

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// load type-checks one import-free source string as package p and builds its
// graph. Import-free fixtures keep the tests hermetic (no export data).
func load(t *testing.T, src string) (*analysis.Program, *Graph) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := analysis.NewInfo()
	conf := types.Config{}
	tpkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	pkg := &analysis.Package{ID: "p", ImportPath: "p", Fset: fset, Files: []*ast.File{f}, Pkg: tpkg, Info: info}
	prog := analysis.NewProgram([]*analysis.Package{pkg})
	return prog, Of(prog)
}

func node(t *testing.T, g *Graph, key string) *Node {
	t.Helper()
	n, ok := g.Nodes[key]
	if !ok {
		var keys []string
		for k := range g.Nodes {
			keys = append(keys, k)
		}
		t.Fatalf("no node %q; have %v", key, keys)
	}
	return n
}

func edgeKinds(n *Node, callee string) []Kind {
	var out []Kind
	for _, e := range n.Out {
		if e.Callee.Key == callee {
			out = append(out, e.Kind)
		}
	}
	return out
}

func TestStaticGoDeferKinds(t *testing.T) {
	_, g := load(t, `package p
func leaf() {}
func caller() {
	leaf()
	go leaf()
	defer leaf()
}
`)
	kinds := edgeKinds(node(t, g, "p.caller"), "p.leaf")
	if len(kinds) != 3 || kinds[0] != KindStatic || kinds[1] != KindGo || kinds[2] != KindDefer {
		t.Fatalf("caller→leaf kinds = %v, want [static go defer]", kinds)
	}
}

func TestMethodValuePassedAsFunc(t *testing.T) {
	_, g := load(t, `package p
type T struct{}
func (T) M() {}
func free() {}
func run(f func()) { f() }
func caller() {
	var t T
	run(t.M)
	run(free)
}
`)
	caller := node(t, g, "p.caller")
	if kinds := edgeKinds(caller, "p.(T).M"); len(kinds) != 1 || kinds[0] != KindMethodValue {
		t.Errorf("caller→T.M kinds = %v, want [method-value]", kinds)
	}
	if kinds := edgeKinds(caller, "p.free"); len(kinds) != 1 || kinds[0] != KindMethodValue {
		t.Errorf("caller→free kinds = %v, want [method-value]", kinds)
	}
	// run's own f() is a call through a function value: unresolved.
	run := node(t, g, "p.run")
	if len(run.Unresolved) != 1 || run.Unresolved[0].NoImpl {
		t.Errorf("run.Unresolved = %+v, want one non-NoImpl entry", run.Unresolved)
	}
}

func TestRecursionAndSCCConvergence(t *testing.T) {
	_, g := load(t, `package p
func even(n int) bool { if n == 0 { return true }; return odd(n-1) }
func odd(n int) bool { if n == 0 { return false }; return even(n-1) }
func self(n int) { if n > 0 { self(n-1) } }
func top() { even(3); self(2) }
`)
	// even/odd form one SCC; self its own; top its own, after both.
	var mutual, selfSCC, topIdx = -1, -1, -1
	for i, scc := range g.SCCs {
		keys := make([]string, len(scc))
		for j, n := range scc {
			keys[j] = n.Key
		}
		switch strings.Join(keys, ",") {
		case "p.even,p.odd":
			mutual = i
		case "p.self":
			selfSCC = i
		case "p.top":
			topIdx = i
		}
	}
	if mutual < 0 || selfSCC < 0 || topIdx < 0 {
		t.Fatalf("missing expected SCCs: mutual=%d self=%d top=%d (%d sccs)", mutual, selfSCC, topIdx, len(g.SCCs))
	}
	if topIdx < mutual || topIdx < selfSCC {
		t.Fatalf("SCC order not bottom-up: top at %d, callees at %d and %d", topIdx, mutual, selfSCC)
	}

	// A reachability summary must converge through the cycle: "calls odd,
	// directly or transitively" is true for even, odd (self via even), top.
	facts := Propagate[bool](g, reachesOdd{})
	wantTrue := map[string]bool{"p.even": true, "p.odd": true, "p.top": true}
	for key, n := range g.Nodes {
		if facts[n] != wantTrue[key] {
			t.Errorf("reachesOdd[%s] = %v, want %v", key, facts[n], wantTrue[key])
		}
	}
}

type reachesOdd struct{}

func (reachesOdd) Compute(n *Node, get func(*Node) bool) bool {
	for _, e := range n.Out {
		if e.Callee.Key == "p.odd" || get(e.Callee) {
			return true
		}
	}
	return false
}
func (reachesOdd) Equal(a, b bool) bool { return a == b }

func TestInterfaceCallBoundedByImplementers(t *testing.T) {
	_, g := load(t, `package p
type Doer interface{ Do() }
type A struct{}
func (A) Do() {}
type B struct{}
func (*B) Do() {}
func caller(d Doer) { d.Do() }
`)
	caller := node(t, g, "p.caller")
	var callees []string
	for _, e := range caller.Out {
		if e.Kind != KindInterface {
			t.Errorf("edge kind = %v, want interface", e.Kind)
		}
		callees = append(callees, e.Callee.Key)
	}
	if strings.Join(callees, ",") != "p.(A).Do,p.(*B).Do" {
		t.Fatalf("interface callees = %v, want [p.(A).Do p.(*B).Do]", callees)
	}
	if len(caller.Unresolved) != 0 {
		t.Errorf("unexpected unresolved: %+v", caller.Unresolved)
	}
}

func TestInterfaceCallZeroImplementersWarns(t *testing.T) {
	_, g := load(t, `package p
type Alien interface{ Probe() }
func caller(a Alien) { a.Probe() }
`)
	caller := node(t, g, "p.caller")
	if len(caller.Out) != 0 {
		t.Fatalf("expected no edges, got %d", len(caller.Out))
	}
	if len(caller.Unresolved) != 1 || !caller.Unresolved[0].NoImpl {
		t.Fatalf("Unresolved = %+v, want one NoImpl entry", caller.Unresolved)
	}
	if !strings.Contains(caller.Unresolved[0].Reason, "Alien.Probe") {
		t.Errorf("reason %q does not name the interface method", caller.Unresolved[0].Reason)
	}
}

func TestFuncLitCallsSiteButNoEdge(t *testing.T) {
	_, g := load(t, `package p
func leaf() {}
func caller() {
	f := func() { leaf() }
	f()
}
`)
	caller := node(t, g, "p.caller")
	if kinds := edgeKinds(caller, "p.leaf"); len(kinds) != 0 {
		t.Errorf("literal body contributed edges to caller: %v", kinds)
	}
	// But the call inside the literal is still a registered site.
	found := false
	for call, site := range g.Sites {
		if len(site.Callees) == 1 && site.Callees[0].Key == "p.leaf" {
			found = true
			_ = call
		}
	}
	if !found {
		t.Errorf("leaf() inside the literal has no registered Site")
	}
}

func TestChainString(t *testing.T) {
	_, g := load(t, `package p
type T struct{}
func (t *T) push() { t.marshal() }
func (t *T) marshal() {}
`)
	push := node(t, g, "p.(*T).push")
	marshal := node(t, g, "p.(*T).marshal")
	s := ChainString([]*Node{push, marshal}, "call into package fmt allocates", marshal.Decl.Pos())
	want := "(*T).push → (*T).marshal → call into package fmt allocates (p.go:4)"
	if s != want {
		t.Errorf("ChainString = %q, want %q", s, want)
	}
}

func TestGraphCachedOnProgram(t *testing.T) {
	prog, g := load(t, `package p
func f() {}
`)
	if Of(prog) != g {
		t.Errorf("Of did not return the cached graph")
	}
}
