package mpmd_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestPublicSurface pins package mpmd's exported identifiers — package-level
// names, methods as Type.Method, struct fields as Type.Field — against
// testdata/api.txt, so a change to the public surface is a reviewed diff of
// that file rather than something a reader has to notice. Aliased types
// (Runtime, Machine, Options, ...) list by name only: their methods and
// fields are the internal packages'. After a deliberate change, delete the
// file and run the test once: a missing file is written, and the test fails
// so the new surface is read before it is committed.
func TestPublicSurface(t *testing.T) {
	const golden = "testdata/api.txt"
	got := strings.Join(exportedNames(t), "\n") + "\n"
	want, err := os.ReadFile(golden)
	if os.IsNotExist(err) {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s did not exist: written from this run; read it, then commit it", golden)
	}
	if err != nil {
		t.Fatal(err)
	}
	gotSet, wantSet := strings.Fields(got), strings.Fields(string(want))
	for _, name := range gotSet {
		if !slices.Contains(wantSet, name) {
			t.Errorf("+%s: exported but not in %s", name, golden)
		}
	}
	for _, name := range wantSet {
		if !slices.Contains(gotSet, name) {
			t.Errorf("-%s: in %s but no longer exported", name, golden)
		}
	}
	if !t.Failed() && got != string(want) {
		t.Errorf("%s is not the sorted one-name-per-line list; regenerate it", golden)
	}
}

// exportedNames parses the package's non-test files and returns its exported
// identifiers, sorted.
func exportedNames(t *testing.T) []string {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	add := func(recv string, id *ast.Ident) {
		if !id.IsExported() {
			return
		}
		if recv != "" {
			recv += "."
		}
		names = append(names, recv+id.Name)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, e.Name(), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil {
					recv = receiverName(d.Recv.List[0].Type)
					if !ast.IsExported(recv) {
						continue
					}
				}
				add(recv, d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add("", id)
						}
					case *ast.TypeSpec:
						add("", s.Name)
						if st, ok := s.Type.(*ast.StructType); ok && s.Name.IsExported() {
							for _, field := range st.Fields.List {
								for _, id := range field.Names {
									add(s.Name.Name, id)
								}
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(names)
	return names
}

// receiverName is the type name of a method receiver: T, *T, T[P] or *T[P].
func receiverName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
