package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// The concurrency-annotation grammar. Field annotations go on the field's
// doc or trailing line comment; function annotations in the doc block.
const (
	// GuardDirective declares that a struct field may only be accessed
	// while the named mutex is held:
	//
	//	done bool //mpmdvet:guard nd.mu
	//
	// The path is resolved relative to the access expression's base: for an
	// access p.done the required lock is p.nd.mu. A path can cross structs
	// (nd.mu above) and can name a promoted sync.Mutex explicitly (Mutex).
	GuardDirective = "//mpmdvet:guard"

	// LockedDirective on a function declares a lock the caller must hold;
	// the path's root must name the receiver or a parameter:
	//
	//	//mpmdvet:locked p.nd.mu
	//	func (b *Backend) Park(p *Proc) { ... }
	LockedDirective = "//mpmdvet:locked"

	// CondDirective on a sync.Cond field names the lock the cond is tied
	// to, resolved like a guard path:
	//
	//	cond sync.Cond //mpmdvet:cond nd.mu
	CondDirective = "//mpmdvet:cond"

	// CPUDirective marks a mutex field as a node CPU: holding it models
	// occupying the processor, so blockhold forbids blocking operations
	// under it.
	CPUDirective = "//mpmd:cpu"
)

// Annotations is every parsed concurrency directive of one package.
type Annotations struct {
	// Guards maps a struct field to its guard path (GuardDirective).
	Guards map[*types.Var]string
	// Conds maps a sync.Cond field to its lock path (CondDirective).
	Conds map[*types.Var]string
	// CPU holds the mutex fields marked as node CPUs (CPUDirective).
	CPU map[*types.Var]bool
	// Warnings are malformed or unresolvable directives; exactly one pass
	// (lockguard) reports them so they fail the build once.
	Warnings []Warning
}

// Warning is one malformed annotation.
type Warning struct {
	Pos     token.Pos
	Message string
}

func (a *Annotations) warnf(pos token.Pos, format string, args ...any) {
	a.Warnings = append(a.Warnings, Warning{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// CollectAnnotations parses every field annotation in the files.
func CollectAnnotations(info *types.Info, files []*ast.File) *Annotations {
	a := &Annotations{
		Guards: map[*types.Var]string{},
		Conds:  map[*types.Var]string{},
		CPU:    map[*types.Var]bool{},
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				a.structFields(info, st)
			}
			return true
		})
	}
	return a
}

func (a *Annotations) structFields(info *types.Info, st *ast.StructType) {
	for _, field := range st.Fields.List {
		guard, guardPos, hasGuard := directiveArg(field, GuardDirective)
		cond, condPos, hasCond := directiveArg(field, CondDirective)
		cpu := hasDirective(field.Doc, CPUDirective) || hasDirective(field.Comment, CPUDirective)
		if !hasGuard && !hasCond && !cpu {
			continue
		}
		if len(field.Names) == 0 {
			a.warnf(field.Pos(), "concurrency annotation on an embedded field is not supported; name the field")
			continue
		}
		if hasGuard && guard == "" {
			a.warnf(guardPos, "%s needs a lock path argument (e.g. %s mu)", GuardDirective, GuardDirective)
			hasGuard = false
		}
		if hasCond && cond == "" {
			a.warnf(condPos, "%s needs a lock path argument (e.g. %s mu)", CondDirective, CondDirective)
			hasCond = false
		}
		for _, name := range field.Names {
			v, ok := info.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			if hasGuard {
				a.Guards[v] = guard
			}
			if hasCond {
				if !isCondType(v.Type()) {
					a.warnf(condPos, "%s on field %s, which is not a sync.Cond", CondDirective, name.Name)
				} else {
					a.Conds[v] = cond
				}
			}
			if cpu {
				if !isMutexType(v.Type()) {
					a.warnf(field.Pos(), "%s on field %s, which is not a sync.Mutex or sync.RWMutex", CPUDirective, name.Name)
				} else {
					a.CPU[v] = true
				}
			}
		}
	}
}

// directiveArg finds the directive in the field's doc or line comment and
// returns its single argument.
func directiveArg(field *ast.Field, directive string) (arg string, pos token.Pos, found bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if arg, ok := directivePath(c, directive); ok {
				return arg, c.Pos(), true
			}
		}
	}
	return "", token.NoPos, false
}

// directivePath reports whether the comment line is the directive, and its
// path argument: the first token after it ("" when there is none; trailing
// prose is tolerated).
func directivePath(c *ast.Comment, directive string) (path string, ok bool) {
	text := strings.TrimSpace(c.Text)
	if text != directive && !strings.HasPrefix(text, directive+" ") {
		return "", false
	}
	if f := strings.Fields(strings.TrimPrefix(text, directive)); len(f) > 0 {
		path = f[0]
	}
	return path, true
}

func hasDirective(cg *ast.CommentGroup, directive string) bool {
	return analysis.FuncDocHasDirective(cg, directive)
}

// EntryLocks resolves a function's //mpmdvet:locked annotations into the
// lockset held at entry. The root of each path must name the receiver or a
// parameter; the rest walks struct fields to a sync.Mutex or sync.RWMutex.
// Unresolvable paths produce a warning and are skipped.
func EntryLocks(info *types.Info, pkg *types.Package, fd *ast.FuncDecl, a *Annotations) LockSet {
	s := LockSet{}
	if fd.Doc == nil {
		return s
	}
	for _, c := range fd.Doc.List {
		path, ok := directivePath(c, LockedDirective)
		if !ok {
			continue
		}
		if path == "" {
			a.warnf(fd.Pos(), "%s needs a lock path rooted at the receiver or a parameter", LockedDirective)
			continue
		}
		segs := strings.Split(path, ".")
		root := lookupParam(info, fd, segs[0])
		if root == nil {
			a.warnf(fd.Pos(), "%s %s: %q is not the receiver or a parameter of %s",
				LockedDirective, path, segs[0], fd.Name.Name)
			continue
		}
		if len(segs) == 1 {
			// The root itself is the lock: a mutex receiver or parameter.
			if !isMutexType(root.Type()) {
				a.warnf(fd.Pos(), "%s %s: path does not resolve to a sync.Mutex or sync.RWMutex", LockedDirective, path)
				continue
			}
			s[analysis.VarKey(root)] = HeldLock{Class: root, Pos: fd.Pos()}
			continue
		}
		key, class, ok := resolveFieldPath(pkg, analysis.VarKey(root), root.Type(), segs[1:])
		if !ok || class == nil || !isMutexType(class.Type()) {
			a.warnf(fd.Pos(), "%s %s: path does not resolve to a sync.Mutex or sync.RWMutex field", LockedDirective, path)
			continue
		}
		s[key] = HeldLock{Class: class, Pos: fd.Pos()}
	}
	return s
}

func lookupParam(info *types.Info, fd *ast.FuncDecl, name string) *types.Var {
	lists := []*ast.FieldList{fd.Recv, fd.Type.Params}
	for _, fl := range lists {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			for _, id := range field.Names {
				if id.Name == name {
					if v, ok := info.Defs[id].(*types.Var); ok {
						return v
					}
				}
			}
		}
	}
	return nil
}

// resolveFieldPath walks segs through struct fields starting at t,
// extending key one segment at a time. The last resolved field is returned
// as the class. Embedded hops taken by promoted field lookup are spliced
// into the key so it matches lock-site keys (lockKeyOf's expansion).
func resolveFieldPath(pkg *types.Package, key string, t types.Type, segs []string) (string, *types.Var, bool) {
	var class *types.Var
	for _, seg := range segs {
		obj, index, _ := types.LookupFieldOrMethod(t, true, pkg, seg)
		v, ok := obj.(*types.Var)
		if !ok || !v.IsField() {
			return "", nil, false
		}
		// Splice the names of any embedded fields the lookup hopped through.
		walk := analysis.Deref(types.Unalias(t))
		for _, idx := range index {
			st, ok := walk.Underlying().(*types.Struct)
			if !ok {
				return "", nil, false
			}
			f := st.Field(idx)
			key += "." + f.Name()
			walk = analysis.Deref(types.Unalias(f.Type()))
			class = f
		}
		t = v.Type()
	}
	return key, class, true
}

func isMutexType(t types.Type) bool {
	return analysis.IsNamed(t, "sync", "Mutex") || analysis.IsNamed(t, "sync", "RWMutex")
}

func isCondType(t types.Type) bool {
	return analysis.IsNamed(t, "sync", "Cond")
}
