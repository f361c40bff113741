package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func collectFrom(t *testing.T, src string) (*token.FileSet, *IgnoreSet, []Diagnostic) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	set, malformed := CollectIgnores(fset, []*ast.File{f})
	return fset, set, malformed
}

func lineDiag(fset *token.FileSet, pass string, line int) Diagnostic {
	var pos token.Pos
	fset.Iterate(func(f *token.File) bool {
		pos = f.LineStart(line)
		return false
	})
	return Diagnostic{Pass: pass, Pos: pos, Message: "m"}
}

func TestIgnoreSameAndPreviousLine(t *testing.T) {
	fset, set, malformed := collectFrom(t, `package p

func f() {
	g() //mpmdvet:ignore demo same-line reason
	//mpmdvet:ignore demo next-line reason
	g()
}
`)
	if len(malformed) != 0 {
		t.Fatalf("unexpected malformed pragmas: %v", malformed)
	}
	if _, ok := set.Match(lineDiag(fset, "demo", 4)); !ok {
		t.Errorf("same-line pragma did not match line 4")
	}
	if _, ok := set.Match(lineDiag(fset, "demo", 6)); !ok {
		t.Errorf("previous-line pragma did not match line 6")
	}
	if _, ok := set.Match(lineDiag(fset, "other", 4)); ok {
		t.Errorf("pragma for pass demo matched pass other")
	}
}

func TestIgnoreMultilineStatementSpan(t *testing.T) {
	// The pragma trails the second line of a three-line call: diagnostics
	// anchored on any line of the statement must match.
	fset, set, _ := collectFrom(t, `package p

func f() {
	g(
		1, //mpmdvet:ignore demo wrapped-call reason
		2,
	)
}
`)
	for _, line := range []int{4, 5, 6, 7} {
		if _, ok := set.Match(lineDiag(fset, "demo", line)); !ok {
			t.Errorf("span pragma did not match line %d of the enclosing statement", line)
		}
	}
}

func TestIgnoreSpanStopsAtNestedBlock(t *testing.T) {
	// A pragma inside a func-lit body attaches to the inner statement, not
	// to the whole assignment that encloses the literal.
	fset, set, _ := collectFrom(t, `package p

func f() {
	h := func() {
		g()
		g() //mpmdvet:ignore demo inner-statement reason
		g()
	}
	h()
}
`)
	if _, ok := set.Match(lineDiag(fset, "demo", 6)); !ok {
		t.Errorf("pragma did not match its own line inside the literal")
	}
	if _, ok := set.Match(lineDiag(fset, "demo", 8)); ok {
		t.Errorf("pragma leaked past its statement to line 8 inside the literal")
	}
	if _, ok := set.Match(lineDiag(fset, "demo", 9)); ok {
		t.Errorf("pragma leaked to line 9 outside the literal")
	}
}

func TestIgnoreUnusedAndMalformed(t *testing.T) {
	_, set, malformed := collectFrom(t, `package p

//mpmdvet:ignore demo
func f() {
	g() //mpmdvet:ignore demo never matched against anything
}
`)
	if len(malformed) != 1 {
		t.Fatalf("expected 1 malformed pragma (missing reason), got %d", len(malformed))
	}
	unused := set.Unused()
	if len(unused) != 1 {
		t.Fatalf("expected 1 unused pragma, got %d", len(unused))
	}
}
