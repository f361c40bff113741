package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseFunc parses one function body out of a source snippet.
func parseFunc(t *testing.T, body string) (*token.FileSet, *ast.BlockStmt) {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, f.Decls[0].(*ast.FuncDecl).Body
}

// visitOrder runs a no-state flow and records each visited flat node as a
// one-line source rendering, in report-sweep order.
func visitOrder(t *testing.T, fset *token.FileSet, body *ast.BlockStmt) []string {
	t.Helper()
	var got []string
	f := &Flow[struct{}]{
		Graph: New(body),
		Entry: func() struct{} { return struct{}{} },
		Clone: func(s struct{}) struct{} { return s },
		Join:  func(dst, src struct{}) bool { return false },
		Transfer: func(_ struct{}, n ast.Node, report bool) {
			if !report {
				return
			}
			switch n := n.(type) {
			case *Fall:
				got = append(got, "<fall>")
			case *TryAcquired:
				got = append(got, "<held>")
			case *ast.Ident:
				got = append(got, n.Name)
			default:
				got = append(got, nodeText(fset, n))
			}
		},
	}
	f.Analyze()
	return got
}

func nodeText(fset *token.FileSet, n ast.Node) string {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if id, ok := n.Lhs[0].(*ast.Ident); ok {
			return id.Name + "="
		}
	case *ast.ExprStmt:
		if call, ok := n.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				return id.Name + "()"
			}
		}
	case *ast.ReturnStmt:
		return "return"
	case *ast.BinaryExpr:
		return "<cond>"
	case *ast.ForStmt:
		return "<for>"
	case *ast.RangeStmt:
		return "<range>"
	}
	return "<node>"
}

func TestIfElseJoin(t *testing.T) {
	fset, body := parseFunc(t, `
		if a > 0 {
			x := 1
			_ = x
		} else {
			y := 2
			_ = y
		}
		z := 3
		_ = z`)
	got := strings.Join(visitOrder(t, fset, body), " ")
	want := "<cond> x= _= y= _= z= _= <fall>"
	if got != want {
		t.Fatalf("visit order:\n got %q\nwant %q", got, want)
	}
}

// TestTryLockSuccessBranch: the synthetic held-marker sits at the head of
// the branch taken when the tested TryLock returned true — the then branch,
// or for a negated test the else branch, which gets a block of its own when
// the source has no else clause. Compound conditions get no marker.
func TestTryLockSuccessBranch(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{`if mu.TryLock() { a() } else { b() }
		  c()`, "<node> <held> a() b() c() <fall>"},
		{`if !mu.TryLock() { a() } else { b() }
		  c()`, "<node> a() <held> b() c() <fall>"},
		{`if !mu.TryRLock() { return }
		  c()`, "<node> return <held> c() <fall>"},
		{`if ok && mu.TryLock() { a() }`, "<cond> a() <fall>"},
	} {
		fset, body := parseFunc(t, tc.src)
		if got := strings.Join(visitOrder(t, fset, body), " "); got != tc.want {
			t.Errorf("%s\n got %q\nwant %q", tc.src, got, tc.want)
		}
	}
}

func TestReturnSuppressesFall(t *testing.T) {
	fset, body := parseFunc(t, `return`)
	got := visitOrder(t, fset, body)
	for _, g := range got {
		if g == "<fall>" {
			t.Fatalf("function ending in return grew a fall-off node: %v", got)
		}
	}
}

func TestUnreachableAfterReturnBothBranches(t *testing.T) {
	fset, body := parseFunc(t, `
		if a > 0 {
			return
		} else {
			return
		}
		dead()`)
	got := strings.Join(visitOrder(t, fset, body), " ")
	if strings.Contains(got, "dead()") || strings.Contains(got, "<fall>") {
		t.Fatalf("code after exhaustive returns should be unreachable, visited: %q", got)
	}
}

func TestLoopBackEdge(t *testing.T) {
	_, body := parseFunc(t, `
		for i := 0; i < 10; i++ {
			work()
		}
		done()`)
	g := New(body)
	// Some block must have a successor with a smaller index: the back edge.
	hasBack := false
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			if s.Index < blk.Index {
				hasBack = true
			}
		}
	}
	if !hasBack {
		t.Fatal("for loop produced no back edge")
	}
}

func TestCondlessLoopEmitsMarkerAndTrapsFlow(t *testing.T) {
	fset, body := parseFunc(t, `
		for {
			spin()
		}`)
	got := strings.Join(visitOrder(t, fset, body), " ")
	if !strings.Contains(got, "<for>") {
		t.Fatalf("condition-less loop should appear as a flat marker, visited: %q", got)
	}
	if strings.Contains(got, "<fall>") {
		t.Fatalf("for{} without break cannot fall off the end, visited: %q", got)
	}
}

func TestBreakEscapesCondlessLoop(t *testing.T) {
	fset, body := parseFunc(t, `
		for {
			if a > 0 {
				break
			}
		}
		after()`)
	got := strings.Join(visitOrder(t, fset, body), " ")
	if !strings.Contains(got, "after()") || !strings.Contains(got, "<fall>") {
		t.Fatalf("break should reach the code after the loop, visited: %q", got)
	}
}

func TestLabeledBreak(t *testing.T) {
	fset, body := parseFunc(t, `
	outer:
		for {
			for {
				break outer
			}
		}
		after()`)
	got := strings.Join(visitOrder(t, fset, body), " ")
	if !strings.Contains(got, "after()") {
		t.Fatalf("labeled break should reach the code after the outer loop, visited: %q", got)
	}
}

func TestGotoForwardEdge(t *testing.T) {
	fset, body := parseFunc(t, `
		goto skip
	skip:
		after()`)
	got := strings.Join(visitOrder(t, fset, body), " ")
	if !strings.Contains(got, "after()") {
		t.Fatalf("forward goto lost its target, visited: %q", got)
	}
}

func TestSwitchWithoutDefaultFallsPast(t *testing.T) {
	fset, body := parseFunc(t, `
		switch a {
		case 1:
			one()
		}
		after()`)
	got := strings.Join(visitOrder(t, fset, body), " ")
	if !strings.Contains(got, "after()") {
		t.Fatalf("switch without default must have a skip edge, visited: %q", got)
	}
}

func TestSelectWithoutDefaultBlocks(t *testing.T) {
	fset, body := parseFunc(t, `
		select {
		case <-ch:
			return
		}
		after()`)
	got := strings.Join(visitOrder(t, fset, body), " ")
	if strings.Contains(got, "after()") {
		t.Fatalf("select without default cannot be skipped, visited: %q", got)
	}
}

func TestPanicEndsBlock(t *testing.T) {
	fset, body := parseFunc(t, `
		panic("boom")
		dead()`)
	got := strings.Join(visitOrder(t, fset, body), " ")
	if strings.Contains(got, "dead()") || strings.Contains(got, "<fall>") {
		t.Fatalf("code after panic should be unreachable, visited: %q", got)
	}
}

// TestMustAnalysisJoin drives the fixpoint with a must-assigned-variables
// analysis: the join is set intersection, so a variable assigned on only
// one branch is not "must" after the join, and a loop converges.
func TestMustAnalysisJoin(t *testing.T) {
	_, body := parseFunc(t, `
		a := 1
		if c > 0 {
			b := 2
			_ = b
		} else {
			a = 3
		}
		for i := 0; i < 3; i++ {
			d := 4
			_ = d
		}
		sink()`)

	type set = map[string]bool
	assigned := func(n ast.Node) []string {
		var out []string
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, l := range as.Lhs {
				if id, ok := l.(*ast.Ident); ok && id.Name != "_" {
					out = append(out, id.Name)
				}
			}
		}
		return out
	}
	var atSink set
	f := &Flow[set]{
		Graph: New(body),
		Entry: func() set { return set{} },
		Clone: func(s set) set {
			c := set{}
			for k := range s {
				c[k] = true
			}
			return c
		},
		Join: func(dst, src set) bool {
			changed := false
			for k := range dst {
				if !src[k] {
					delete(dst, k)
					changed = true
				}
			}
			return changed
		},
		Transfer: func(s set, n ast.Node, report bool) {
			for _, name := range assigned(n) {
				s[name] = true
			}
			if report {
				if es, ok := n.(*ast.ExprStmt); ok {
					if call, ok := es.X.(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "sink" {
							atSink = s
						}
					}
				}
			}
		},
	}
	f.Analyze()
	if atSink == nil {
		t.Fatal("sink() never visited")
	}
	if !atSink["a"] {
		t.Error("a is assigned on every path and must survive the join")
	}
	if atSink["b"] {
		t.Error("b is assigned on one branch only and must not survive the join")
	}
	if atSink["d"] {
		t.Error("d is assigned only inside the loop body and must not survive the zero-iteration path")
	}
	if !atSink["i"] {
		t.Error("i is assigned by the loop init on every path")
	}
}
