// Package wirewords guards the frame-encoder invariant: any struct that
// reaches the netlive wire (it implements transport.FrameMarshaler —
// WireLen() int plus EncodeWire([]byte) int — or is annotated //mpmd:wire)
// must be word-resolvable. Its fields, transitively, may only be booleans, fixed-size
// integers/floats, strings, byte slices, arrays/slices of those, or nested
// structs of the same shape. Pointers, interfaces (including any/error),
// chans, funcs, maps, complex numbers, uintptr, and unsafe.Pointer cannot be
// resolved to wire words and are flagged at the offending field.
//
// The check is structural, not import-based, so packages below machine in
// the dependency order are still checked. A field that is envelope-side
// bookkeeping stripped by the encoder (e.g. a pool back-reference) takes a
// //mpmdvet:ignore wirewords <reason> pragma.
package wirewords

import (
	"fmt"
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Directive force-marks a struct as wire-bound even without the methods.
const Directive = "//mpmd:wire"

var Analyzer = &analysis.Analyzer{
	Name: "wirewords",
	Doc: "check that structs reaching the netlive frame encoder (FrameMarshaler implementors " +
		"or //mpmd:wire) contain only word-resolvable fields: no any, pointers, chan, func, or maps",
	Run: run,
}

func run(pass *analysis.Pass) error {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				obj, ok := info.Defs[ts.Name]
				if !ok || obj == nil {
					continue
				}
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil && len(gd.Specs) == 1 {
					doc = gd.Doc
				}
				if !isWirePayload(named) && !analysis.FuncDocHasDirective(doc, Directive) {
					continue
				}
				checkStruct(pass, named.Obj().Name(), st, map[*types.Named]bool{named: true})
			}
		}
	}
	return nil
}

// isWirePayload reports whether *T or T has both WireLen() int and
// EncodeWire([]byte) int — the transport.FrameMarshaler contract, matched
// structurally so the pass needs no import of internal/machine.
func isWirePayload(named *types.Named) bool {
	ms := types.NewMethodSet(types.NewPointer(named))
	var wireLen, encodeWire bool
	for i := 0; i < ms.Len(); i++ {
		fn, ok := ms.At(i).Obj().(*types.Func)
		if !ok {
			continue
		}
		sig := fn.Type().(*types.Signature)
		switch fn.Name() {
		case "WireLen":
			wireLen = sig.Params().Len() == 0 && sig.Results().Len() == 1 && isInt(sig.Results().At(0).Type())
		case "EncodeWire":
			encodeWire = sig.Params().Len() == 1 && isByteSlice(sig.Params().At(0).Type()) &&
				sig.Results().Len() == 1 && isInt(sig.Results().At(0).Type())
		}
	}
	return wireLen && encodeWire
}

// checkStruct validates every field of a wire-bound struct declared in this
// package, recursing into nested named structs (reported at the top-level
// field when the nested type lives in another package).
func checkStruct(pass *analysis.Pass, structName string, st *ast.StructType, visiting map[*types.Named]bool) {
	info := pass.TypesInfo
	for _, field := range st.Fields.List {
		tv, ok := info.Types[field.Type]
		if !ok {
			continue
		}
		names := fieldNames(field)
		if why, bad := badWireType(tv.Type, visiting); bad {
			pass.Reportf(field.Pos(),
				"wire-bound struct %s: field %s has type %s (%s) — frames carry only word-resolvable data: no any, pointers, chan, func, or maps",
				structName, names, tv.Type, why)
		}
	}
}

func fieldNames(field *ast.Field) string {
	if len(field.Names) == 0 {
		return "(embedded)"
	}
	s := field.Names[0].Name
	for _, n := range field.Names[1:] {
		s += ", " + n.Name
	}
	return s
}

// badWireType classifies a type as wire-resolvable or not; why names the
// first offending component.
func badWireType(t types.Type, visiting map[*types.Named]bool) (why string, bad bool) {
	t = types.Unalias(t)
	if named, ok := t.(*types.Named); ok {
		if visiting[named] {
			return "", false // already being validated
		}
		visiting[named] = true
		defer delete(visiting, named)
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		switch {
		case u.Info()&(types.IsBoolean|types.IsInteger|types.IsFloat|types.IsString) == 0:
			return fmt.Sprintf("%s is not a wire word", u), true
		case u.Kind() == types.Uintptr, u.Kind() == types.UnsafePointer:
			return "uintptr/unsafe.Pointer is not portable wire data", true
		}
		return "", false
	case *types.Array:
		return badWireType(u.Elem(), visiting)
	case *types.Slice:
		return badWireType(u.Elem(), visiting)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if why, bad := badWireType(u.Field(i).Type(), visiting); bad {
				return fmt.Sprintf("field %s: %s", u.Field(i).Name(), why), true
			}
		}
		return "", false
	case *types.Pointer:
		return "pointer", true
	case *types.Interface:
		return "interface", true
	case *types.Chan:
		return "chan", true
	case *types.Signature:
		return "func", true
	case *types.Map:
		return "map", true
	}
	return fmt.Sprintf("unsupported kind %T", t.Underlying()), true
}

func isInt(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}
