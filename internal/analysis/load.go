package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// listPkg is the slice of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
	Standard   bool
	DepOnly    bool
	ForTest    string
	Incomplete bool
	Error      *struct{ Err string }
}

// LoadPackages loads, parses, and type-checks the packages matched by
// patterns in the module rooted at dir: List, then Check of the files as they
// are on disk.
func LoadPackages(dir string, tests bool, patterns ...string) ([]*Package, error) {
	l, err := List(dir, tests, patterns...)
	if err != nil {
		return nil, err
	}
	return l.Check(nil)
}

// Listing is what one `go list` says about the module: the analysis units
// with their files, and the compiler export data of everything they import
// from outside the set. Check can run over it any number of times, so a
// caller that analyzes variants of one tree (the mutation corpus) lists once.
type Listing struct {
	roots   []*listPkg
	exports map[string]string // ImportPath (incl. test-variant form) -> export data file
}

// List resolves the packages matched by patterns in the module rooted at dir
// with `go list -export`. When tests is true each package's test variant (the
// unit `go vet` analyzes: GoFiles + TestGoFiles, plus the external _test
// package) replaces the plain one.
//
// This is the one place the loader shells out to the go command; everything
// else is stdlib go/parser + go/types, so it works hermetically offline.
func List(dir string, tests bool, patterns ...string) (*Listing, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := []string{"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,ImportMap,Standard,DepOnly,ForTest,Incomplete,Error"}
	if tests {
		args = append(args, "-test")
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	var pkgs []*listPkg
	l := &Listing{exports: map[string]string{}}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		pp := p
		pkgs = append(pkgs, &pp)
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}
	l.roots = chooseRoots(pkgs, tests)
	return l, nil
}

// Check parses and type-checks the listed packages, resolving imports between
// them from source and all others through the export data. overlay, which may
// be nil, replaces the content of the files it names (by absolute path).
func (l *Listing) Check(overlay map[string][]byte) ([]*Package, error) {
	ld := newLoader(token.NewFileSet(), l.exports)
	ld.overlay = overlay
	for _, lp := range l.roots {
		ld.byID[lp.ImportPath] = lp
		// A root also provides its plain import path, so a later root that
		// imports "p" resolves to the source-checked "p [p.test]" variant
		// (a superset of p's declarations) instead of a second, identity-
		// distinct copy from export data.
		ld.plain[plainPath(lp.ImportPath)] = lp.ImportPath
	}
	var loaded []*Package
	for _, lp := range l.roots {
		pkg, err := ld.check(lp.ImportPath)
		if err != nil {
			return nil, err
		}
		loaded = append(loaded, pkg)
	}
	sort.Slice(loaded, func(i, j int) bool { return loaded[i].ID < loaded[j].ID })
	return loaded, nil
}

func plainPath(id string) string {
	if i := strings.Index(id, " ["); i >= 0 {
		return id[:i] // "p [p.test]" -> "p"
	}
	return id
}

// loader type-checks the chosen roots in one shared identity space: a root's
// in-module imports resolve to the source-checked *types.Package of the root
// that provides them (checked on demand, so any listing order works), and
// everything else comes from one shared export-data importer. One identity
// per named type program-wide is what makes cross-package interface
// satisfaction (callgraph CHA bounding) and cross-package summary facts
// meaningful; per-package importers would give every root a private copy of
// every dependency.
type loader struct {
	fset    *token.FileSet
	exports map[string]string
	overlay map[string][]byte // absolute path -> content that replaces the file's
	byID    map[string]*listPkg
	plain   map[string]string // plain import path -> providing root ID
	checked map[string]*Package
	pending map[string]bool // import-cycle guard (should never trip)
	gc      types.Importer
}

func newLoader(fset *token.FileSet, exports map[string]string) *loader {
	return &loader{
		fset:    fset,
		exports: exports,
		byID:    map[string]*listPkg{},
		plain:   map[string]string{},
		checked: map[string]*Package{},
		pending: map[string]bool{},
		gc: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			e, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(e)
		}),
	}
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func (ld *loader) check(id string) (*Package, error) {
	if pkg, ok := ld.checked[id]; ok {
		return pkg, nil
	}
	lp := ld.byID[id]
	if ld.pending[id] {
		return nil, fmt.Errorf("import cycle through %s", id)
	}
	ld.pending[id] = true
	defer delete(ld.pending, id)
	pkg, err := ld.checkPackage(lp)
	if err != nil {
		return nil, err
	}
	ld.checked[id] = pkg
	return pkg, nil
}

// resolve maps one import of lp to a types.Package: the package's ImportMap
// first (test-variant and vendor redirection), then a source-checked root,
// then export data. A dependency the go command recompiles for another
// package's test ("q [p.test]", imported by p's external test package when q
// imports p) is the root that provides q: checked from source, it already
// sees p's test variant, so p's types keep one identity.
func (ld *loader) resolve(lp *listPkg, path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if mapped, ok := lp.ImportMap[path]; ok {
		path = mapped
	}
	rootID := ""
	if _, ok := ld.byID[path]; ok {
		rootID = path
	} else if id, ok := ld.plain[plainPath(path)]; ok {
		rootID = id
	}
	if rootID != "" && rootID != lp.ImportPath {
		pkg, err := ld.check(rootID)
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	return ld.gc.Import(path)
}

// checkPackage parses and type-checks one listed package.
func (ld *loader) checkPackage(lp *listPkg) (*Package, error) {
	if len(lp.GoFiles) == 0 {
		return nil, fmt.Errorf("package %s has no Go files (build error?)", lp.ImportPath)
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(lp.Dir, name)
		}
		var src any // nil: read the file
		if b, ok := ld.overlay[path]; ok {
			src = b
		}
		f, err := parser.ParseFile(ld.fset, path, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %v", path, err)
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			return ld.resolve(lp, path)
		}),
	}
	importPath := plainPath(lp.ImportPath)
	tpkg, err := conf.Check(importPath, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", lp.ImportPath, err)
	}
	return &Package{
		ID:         lp.ImportPath,
		ImportPath: importPath,
		Fset:       ld.fset,
		Files:      files,
		Pkg:        tpkg,
		Info:       info,
	}, nil
}

// chooseRoots picks the analysis units from a -deps listing: every
// non-dependency, non-stdlib package, with a package's plain form dropped
// when its test variant (which contains a superset of its files) is present,
// and generated ".test" main stubs skipped.
func chooseRoots(pkgs []*listPkg, tests bool) []*listPkg {
	testVariantOf := map[string]bool{}
	if tests {
		for _, p := range pkgs {
			// The in-package variant "p [p.test]" has plain path p; the
			// external test package is "p_test [p.test]" and supersedes
			// nothing.
			if p.ForTest != "" && !p.DepOnly && plainPath(p.ImportPath) == p.ForTest {
				testVariantOf[p.ForTest] = true
			}
		}
	}
	var roots []*listPkg
	for _, p := range pkgs {
		switch {
		case p.DepOnly || p.Standard:
			continue
		case strings.HasSuffix(p.ImportPath, ".test"):
			continue // synthesized test main
		case len(p.GoFiles) == 0:
			continue // nothing to analyze (e.g. a test-only directory's plain package)
		case p.ForTest == "" && testVariantOf[p.ImportPath]:
			continue // the test variant supersedes it
		}
		roots = append(roots, p)
	}
	return roots
}

// LoadFixture parses the .go files of one fixture directory as a single
// package and type-checks it against the module's dependency export data —
// fixtures may therefore import the real repro/internal/... packages. The
// exports map comes from ModuleExports.
func LoadFixture(fset *token.FileSet, dir, importPath string, exports map[string]string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse fixture %s: %v", e.Name(), err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fixture dir %s has no .go files", dir)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		e, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q — fixtures may only import packages reachable from the module", path)
		}
		return os.Open(e)
	}
	info := NewInfo()
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck fixture %s: %v", dir, err)
	}
	return &Package{
		ID:         importPath,
		ImportPath: importPath,
		Fset:       fset,
		Files:      files,
		Pkg:        tpkg,
		Info:       info,
	}, nil
}

// ModuleRoot walks up from dir to the nearest directory containing go.mod:
// where the fixture harness and the suite's tests, which run in their own
// package directories, find the tree.
func ModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// ModuleExports builds the ImportPath -> export-data map for every package
// reachable from the module rooted at dir (used to type-check fixtures).
func ModuleExports(dir string) (map[string]string, error) {
	cmd := exec.Command("go", "list", "-e", "-export", "-deps", "-json=ImportPath,Export", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}
