package analysis

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module in a temp dir.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestLoadPackagesBadDir(t *testing.T) {
	_, err := LoadPackages(filepath.Join(t.TempDir(), "does-not-exist"), false, "./...")
	if err == nil || !strings.Contains(err.Error(), "go list") {
		t.Fatalf("expected a go list error for a nonexistent dir, got %v", err)
	}
}

func TestCheckPackageNoGoFiles(t *testing.T) {
	ld := newLoader(token.NewFileSet(), nil)
	_, err := ld.checkPackage(&listPkg{ImportPath: "empty"})
	if err == nil || !strings.Contains(err.Error(), "no Go files") {
		t.Fatalf("expected a no-Go-files error, got %v", err)
	}
}

func TestCheckPackageParseError(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a.go": "package a\nfunc broken( {\n",
	})
	ld := newLoader(token.NewFileSet(), nil)
	_, err := ld.checkPackage(&listPkg{
		ImportPath: "broken", Dir: dir, GoFiles: []string{"a.go"},
	})
	if err == nil || !strings.Contains(err.Error(), "parse") {
		t.Fatalf("expected a parse error, got %v", err)
	}
}

func TestCheckPackageMissingExportData(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a.go": "package a\n\nimport \"fmt\"\n\nvar _ = fmt.Sprintf\n",
	})
	ld := newLoader(token.NewFileSet(), map[string]string{}) // no export data for fmt
	_, err := ld.checkPackage(&listPkg{
		ImportPath: "needsfmt", Dir: dir, GoFiles: []string{"a.go"},
	})
	if err == nil || !strings.Contains(err.Error(), "no export data") {
		t.Fatalf("expected a no-export-data error, got %v", err)
	}
}

func TestLoadPackagesBrokenDep(t *testing.T) {
	// Package b does not compile, so `go list -export` produces no export
	// data for it; loading its importer a must fail loudly rather than
	// silently analyzing half a module.
	dir := writeModule(t, map[string]string{
		"go.mod":   "module tmpmod\n\ngo 1.21\n",
		"a/a.go":   "package a\n\nimport \"tmpmod/b\"\n\nvar V = b.V\n",
		"b/b.go":   "package b\n\nvar V int = \"not an int\"\n",
		"b/ok.txt": "",
	})
	_, err := LoadPackages(dir, false, "./a")
	if err == nil {
		t.Fatal("expected an error loading a package whose dependency is broken")
	}
	if !strings.Contains(err.Error(), "tmpmod/b") {
		t.Fatalf("error should name the broken dependency, got %v", err)
	}
}

func TestLoadPackagesTestVariant(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":      "module tmpmod\n\ngo 1.21\n",
		"a/a.go":      "package a\n\nfunc Value() int { return 1 }\n",
		"a/a_test.go": "package a\n\nimport \"testing\"\n\nfunc TestValue(t *testing.T) { _ = Value() }\n",
	})
	pkgs, err := LoadPackages(dir, true, "./...")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, p := range pkgs {
		ids = append(ids, p.ID)
	}
	var variant *Package
	for _, p := range pkgs {
		if p.ID == "tmpmod/a [tmpmod/a.test]" {
			variant = p
		}
		if p.ID == "tmpmod/a" {
			t.Errorf("plain package should be superseded by its test variant; got IDs %v", ids)
		}
	}
	if variant == nil {
		t.Fatalf("test variant not loaded; got IDs %v", ids)
	}
	if variant.ImportPath != "tmpmod/a" {
		t.Errorf("test variant ImportPath = %q, want tmpmod/a", variant.ImportPath)
	}
	if len(variant.Files) != 2 {
		t.Errorf("test variant should contain the package and test files, got %d files", len(variant.Files))
	}
}

// TestLoadPackagesRecompiledDependency: a's external test imports b, which
// imports a, so the go command recompiles b against a's test variant ("b
// [a.test]"). b's a must then be the same package as the test's, or passing
// an a.T to b fails to type-check.
func TestLoadPackagesRecompiledDependency(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":      "module tmpmod\n\ngo 1.21\n",
		"a/a.go":      "package a\n\ntype T struct{}\n",
		"a/a_test.go": "package a\n\nimport \"testing\"\n\nfunc TestT(t *testing.T) { _ = T{} }\n",
		"a/x_test.go": "package a_test\n\nimport (\n\t\"testing\"\n\n\t\"tmpmod/a\"\n\t\"tmpmod/b\"\n)\n\nfunc TestUse(t *testing.T) { b.Use(&a.T{}) }\n",
		"b/b.go":      "package b\n\nimport \"tmpmod/a\"\n\nfunc Use(*a.T) {}\n",
	})
	if _, err := LoadPackages(dir, true, "./..."); err != nil {
		t.Fatal(err)
	}
}
