// Package rmigen derives RMI method tables and marshalling code from
// ordinary Go types at registration time — the v2 typed façade's stand-in
// for the stub generation CC++'s front-end translator performed.
//
// The derived code lowers onto the untyped core exactly, and without a second
// representation of the value: the provided core Args are one-field structs
// with the memory layout of the Go type they carry, so a field at address p
// is its Arg — (*core.I64)(p) — and a whole argument or result is one Value,
// an Arg that walks the type's plan and delegates to each field's view. Its
// bytes, size and marshal-unit count are the sums a hand-written []Arg has,
// so the calibrated cost model cannot tell typed and untyped calls apart
// (the typed/untyped parity test in mpmd verifies it). Reflection happens at
// registration (plan construction) and in the receiver's trampoline, which
// runs in wall time only.
package rmigen

import (
	"fmt"
	"reflect"
	"unsafe"

	"repro/internal/core"
)

// Void is the empty value type used for "no arguments" and "no return
// value" positions in typed invocations.
type Void = struct{}

var voidType = reflect.TypeOf(Void{})

// fieldPlan locates one component of a value type — a struct field, or the
// value itself for scalar value types — and names the provided Arg it is.
type fieldPlan struct {
	off   uintptr // byte offset of the component within the value
	fixed bool    // component always encodes to one 8-byte word
	// view converts the component's address to its Arg. The conversion
	// rests on each provided Arg being exactly as large as its one field
	// (asserted beside the declarations in core/args.go).
	view func(unsafe.Pointer) core.Arg
}

func (f *fieldPlan) at(p unsafe.Pointer) core.Arg { return f.view(unsafe.Add(p, f.off)) }

func viewI64(p unsafe.Pointer) core.Arg      { return (*core.I64)(p) }
func viewF64(p unsafe.Pointer) core.Arg      { return (*core.F64)(p) }
func viewStr(p unsafe.Pointer) core.Arg      { return (*core.Str)(p) }
func viewBytes(p unsafe.Pointer) core.Arg    { return (*core.Bytes)(p) }
func viewF64Slice(p unsafe.Pointer) core.Arg { return (*core.F64Slice)(p) }

// valuePlan is the marshalling plan for one argument or return type, built
// once at registration.
type valuePlan struct {
	typ    reflect.Type
	fields []fieldPlan
}

// fieldPlanFor maps a component type to its provided Arg. These are exactly
// the core Arg types, so typed payloads are byte-identical to hand-written
// ones.
func fieldPlanFor(t reflect.Type, off uintptr) (fieldPlan, error) {
	fp := fieldPlan{off: off}
	switch {
	case t.Kind() == reflect.Int64, t.Kind() == reflect.Int && t.Size() == 8:
		fp.fixed, fp.view = true, viewI64
	case t.Kind() == reflect.Int:
		return fp, fmt.Errorf("type int is %d bytes on this platform and cannot lie on the wire as a word; use int64", t.Size())
	case t.Kind() == reflect.Float64:
		fp.fixed, fp.view = true, viewF64
	case t.Kind() == reflect.String:
		fp.view = viewStr
	case t == reflect.TypeOf([]float64(nil)):
		fp.view = viewF64Slice
	case t == reflect.TypeOf([]byte(nil)):
		fp.view = viewBytes
	default:
		return fp, fmt.Errorf("unsupported type %s (supported: int, int64, float64, string, []byte, []float64, or a struct of those)", t)
	}
	return fp, nil
}

// planFor compiles the marshalling plan for an argument or return type:
// either one of the supported scalar/slice kinds directly, or a struct whose
// exported fields are all supported kinds.
func planFor(t reflect.Type) (*valuePlan, error) {
	p := &valuePlan{typ: t}
	if t.Kind() != reflect.Struct {
		fp, err := fieldPlanFor(t, 0)
		if err != nil {
			return nil, err
		}
		p.fields = []fieldPlan{fp}
		return p, nil
	}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			return nil, fmt.Errorf("struct %s has unexported field %s (marshalled structs must be fully exported)", t, f.Name)
		}
		fp, err := fieldPlanFor(f.Type, f.Offset)
		if err != nil {
			return nil, fmt.Errorf("struct %s field %s: %w", t, f.Name, err)
		}
		p.fields = append(p.fields, fp)
	}
	if len(p.fields) == 0 {
		return nil, fmt.Errorf("struct %s has no exported fields; use no parameter (or no result) instead of an empty struct", t)
	}
	return p, nil
}

// newValue returns a Value that owns a zero value of the plan's type: the
// decode target of one pooled receiver frame.
func (p *valuePlan) newValue() *Value {
	return &Value{plan: p, ptr: reflect.New(p.typ).UnsafePointer()}
}

// Value is a typed argument or result, where it lies, as one wire Arg.
// Encoding is the concatenation of the component encodings; size and marshal
// units are the sums — identical to sending the components as separate
// Args, so the cost model sees no difference. Decode writes in place and
// reuses the capacity of a slice already there, as the provided slice Args
// do: the value a receiver decodes into is the runtime's, and method bodies
// must not retain it (core.Method.Fn). A value the caller keeps is decoded
// into zeroed storage (Codec.DecodePtr, a fresh result in Invoke).
type Value struct {
	plan *valuePlan
	ptr  unsafe.Pointer
}

// WireSize implements core.Arg.
//
//mpmd:hotpath
func (v *Value) WireSize() int {
	n := 0
	for i := range v.plan.fields {
		n += v.plan.fields[i].at(v.ptr).WireSize()
	}
	return n
}

// MarshalUnits implements core.Arg.
//
//mpmd:hotpath
func (v *Value) MarshalUnits() int {
	n := 0
	for i := range v.plan.fields {
		n += v.plan.fields[i].at(v.ptr).MarshalUnits()
	}
	return n
}

// Encode implements core.Arg.
//
//mpmd:hotpath
func (v *Value) Encode(b []byte) int {
	off := 0
	for i := range v.plan.fields {
		off += v.plan.fields[i].at(v.ptr).Encode(b[off:])
	}
	return off
}

// Decode implements core.Arg.
//
//mpmd:hotpath
func (v *Value) Decode(b []byte) int {
	off := 0
	for i := range v.plan.fields {
		off += v.plan.fields[i].at(v.ptr).Decode(b[off:])
	}
	return off
}
