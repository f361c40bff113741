// Package rmigen derives RMI method tables and marshalling code from
// ordinary Go types at registration time — the v2 typed façade's stand-in
// for the stub generation CC++'s front-end translator performed.
//
// The derived code lowers onto the untyped core exactly: every argument
// struct becomes the []core.Arg slice a hand-written Class would have used
// (one provided Arg per exported field, same wire bytes, same marshal-unit
// counts), so the calibrated cost model cannot tell typed and untyped calls
// apart. All reflection work happens either at registration time (plan
// construction) or in wall-time-only code paths (no virtual-time charges),
// which is what the typed/untyped parity test in mpmd verifies.
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

// fieldPlan marshals one component of a value type: a struct field, or the
// value itself for scalar value types (index < 0). The store/load code is
// compiled at derive time into offset-based accessors over raw pointers —
// all reflection happens when the plan is built; a call moves the component
// with two pointer dereferences and an interface assertion, no
// reflect.Value traffic.
type fieldPlan struct {
	index int
	name  string
	off   uintptr // byte offset of the component within the value
	slice bool    // component is a slice kind (decode aliases the Arg)
	fixed bool    // component always encodes to one 8-byte word
	make  func() core.Arg
	// store copies the Go value component at p (a pointer to the whole
	// argument/return value) into a wire Arg.
	store func(p unsafe.Pointer, a core.Arg)
	// load copies a wire Arg back into the value component at p.
	load func(p unsafe.Pointer, a core.Arg)
}

// valuePlan is the precompiled marshalling plan for one argument or return
// type. Plans are built once at registration; per-call work is a handful of
// interface assertions and field copies.
type valuePlan struct {
	typ    reflect.Type
	fields []fieldPlan
	// hasSlices records whether any component is a slice kind. A decoded
	// slice aliases the wire Arg's backing array, so return values of such
	// plans must not ride pooled Args (the application keeps the result;
	// recycling would let the next call overwrite it).
	hasSlices bool
}

// supported value component kinds and their wire lowering. These are
// exactly the provided core Arg types, so typed payloads are byte-identical
// to hand-written ones.
func fieldPlanFor(index int, name string, t reflect.Type, off uintptr) (fieldPlan, error) {
	fp := fieldPlan{index: index, name: name, off: off}
	switch {
	case t.Kind() == reflect.Int64:
		fp.fixed = true
		fp.make = func() core.Arg { return &core.I64{} }
		fp.store = func(p unsafe.Pointer, a core.Arg) { a.(*core.I64).V = *(*int64)(unsafe.Add(p, off)) }
		fp.load = func(p unsafe.Pointer, a core.Arg) { *(*int64)(unsafe.Add(p, off)) = a.(*core.I64).V }
	case t.Kind() == reflect.Int:
		fp.fixed = true
		fp.make = func() core.Arg { return &core.I64{} }
		fp.store = func(p unsafe.Pointer, a core.Arg) { a.(*core.I64).V = int64(*(*int)(unsafe.Add(p, off))) }
		fp.load = func(p unsafe.Pointer, a core.Arg) { *(*int)(unsafe.Add(p, off)) = int(a.(*core.I64).V) }
	case t.Kind() == reflect.Float64:
		fp.fixed = true
		fp.make = func() core.Arg { return &core.F64{} }
		fp.store = func(p unsafe.Pointer, a core.Arg) { a.(*core.F64).V = *(*float64)(unsafe.Add(p, off)) }
		fp.load = func(p unsafe.Pointer, a core.Arg) { *(*float64)(unsafe.Add(p, off)) = a.(*core.F64).V }
	case t.Kind() == reflect.String:
		fp.make = func() core.Arg { return &core.Str{} }
		fp.store = func(p unsafe.Pointer, a core.Arg) { a.(*core.Str).V = *(*string)(unsafe.Add(p, off)) }
		fp.load = func(p unsafe.Pointer, a core.Arg) { *(*string)(unsafe.Add(p, off)) = a.(*core.Str).V }
	case t == reflect.TypeOf([]float64(nil)):
		fp.slice = true
		fp.make = func() core.Arg { return &core.F64Slice{} }
		fp.store = func(p unsafe.Pointer, a core.Arg) { a.(*core.F64Slice).V = *(*[]float64)(unsafe.Add(p, off)) }
		fp.load = func(p unsafe.Pointer, a core.Arg) { *(*[]float64)(unsafe.Add(p, off)) = a.(*core.F64Slice).V }
	case t == reflect.TypeOf([]byte(nil)):
		fp.slice = true
		fp.make = func() core.Arg { return &core.Bytes{} }
		fp.store = func(p unsafe.Pointer, a core.Arg) { a.(*core.Bytes).V = *(*[]byte)(unsafe.Add(p, off)) }
		fp.load = func(p unsafe.Pointer, a core.Arg) { *(*[]byte)(unsafe.Add(p, off)) = a.(*core.Bytes).V }
	default:
		return fp, fmt.Errorf("unsupported type %s (supported: int, int64, float64, string, []byte, []float64, or a struct of those)", t)
	}
	return fp, nil
}

// planFor compiles the marshalling plan for an argument or return type:
// either one of the supported scalar/slice kinds directly, or a struct whose
// exported fields are all supported kinds. Field offsets are resolved here,
// at derive time — per-call marshalling never touches reflection again.
func planFor(t reflect.Type) (*valuePlan, error) {
	p := &valuePlan{typ: t}
	if t.Kind() != reflect.Struct {
		fp, err := fieldPlanFor(-1, t.String(), t, 0)
		if err != nil {
			return nil, err
		}
		p.fields = []fieldPlan{fp}
		p.hasSlices = fp.slice
		return p, nil
	}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			return nil, fmt.Errorf("struct %s has unexported field %s (marshalled structs must be fully exported)", t, f.Name)
		}
		fp, err := fieldPlanFor(i, f.Name, f.Type, f.Offset)
		if err != nil {
			return nil, fmt.Errorf("struct %s field %s: %w", t, f.Name, err)
		}
		p.hasSlices = p.hasSlices || fp.slice
		p.fields = append(p.fields, fp)
	}
	if len(p.fields) == 0 {
		return nil, fmt.Errorf("struct %s has no exported fields; use no parameter (or no result) instead of an empty struct", t)
	}
	return p, nil
}

// clearRefs drops the heap references a marshal left in the wire Args
// (slice backing arrays, string data), so a frame returning to the codec
// pool does not retain application payloads.
func (p *valuePlan) clearRefs(args []core.Arg) {
	for i := range p.fields {
		switch a := args[i].(type) {
		case *core.F64Slice:
			a.V = nil
		case *core.Bytes:
			a.V = nil
		case *core.Str:
			a.V = ""
		}
	}
}

// newArgs returns fresh wire Args for the plan, one per component — the
// same slice shape a hand-written Method.NewArgs would build.
func (p *valuePlan) newArgs() []core.Arg {
	args := make([]core.Arg, len(p.fields))
	for i := range p.fields {
		args[i] = p.fields[i].make()
	}
	return args
}

// storePtr copies the Go value at p into the wire Args — the compiled,
// reflection-free per-call path.
//
//mpmd:hotpath
func (p *valuePlan) storePtr(ptr unsafe.Pointer, args []core.Arg) {
	for i := range p.fields {
		p.fields[i].store(ptr, args[i])
	}
}

// loadPtr copies the wire Args into the Go value at p.
//
//mpmd:hotpath
func (p *valuePlan) loadPtr(ptr unsafe.Pointer, args []core.Arg) {
	for i := range p.fields {
		p.fields[i].load(ptr, args[i])
	}
}

// addr returns a pointer to the Go value for the compiled plans: the entry
// point of the wall-time-only paths that hold a reflect.Value. A
// non-addressable value is copied to an addressable temporary first.
func (p *valuePlan) addr(v reflect.Value) unsafe.Pointer {
	if !v.CanAddr() {
		tmp := reflect.New(p.typ).Elem()
		tmp.Set(v)
		v = tmp
	}
	return v.Addr().UnsafePointer()
}

// store copies the Go value into the wire Args.
func (p *valuePlan) store(v reflect.Value, args []core.Arg) { p.storePtr(p.addr(v), args) }

// newRet returns the single wire Arg for a return value: the provided Arg
// directly for single-component types, a group for multi-field structs.
// Either way the wire size and marshal-unit count equal the sum over
// components, matching what separate hand-written Args would cost.
func (p *valuePlan) newRet() core.Arg {
	if len(p.fields) == 1 {
		return p.fields[0].make()
	}
	return &group{args: p.newArgs()}
}

// storeRet fills a return Arg from the method's Go result value.
func (p *valuePlan) storeRet(v reflect.Value, ret core.Arg) { p.storeRetPtr(p.addr(v), ret) }

// storeRetPtr fills a return Arg from the result value at ptr.
//
//mpmd:hotpath
func (p *valuePlan) storeRetPtr(ptr unsafe.Pointer, ret core.Arg) {
	if len(p.fields) == 1 {
		p.fields[0].store(ptr, ret)
		return
	}
	p.storePtr(ptr, ret.(*group).args)
}

// loadRet decodes a return Arg into the (addressable) Go result value.
func (p *valuePlan) loadRet(v reflect.Value, ret core.Arg) {
	p.loadRetPtr(v.Addr().UnsafePointer(), ret)
}

// loadRetPtr decodes a return Arg into the result value at ptr.
//
//mpmd:hotpath
func (p *valuePlan) loadRetPtr(ptr unsafe.Pointer, ret core.Arg) {
	if len(p.fields) == 1 {
		p.fields[0].load(ptr, ret)
		return
	}
	p.loadPtr(ptr, ret.(*group).args)
}

// group packs several wire Args into one return value. Encoding is the
// concatenation of the member encodings; size and marshal units are the
// sums — identical to sending the members as separate Args, so the cost
// model sees no difference.
type group struct{ args []core.Arg }

// WireSize implements core.Arg.
func (g *group) WireSize() int {
	n := 0
	for _, a := range g.args {
		n += a.WireSize()
	}
	return n
}

// MarshalUnits implements core.Arg.
func (g *group) MarshalUnits() int {
	n := 0
	for _, a := range g.args {
		n += a.MarshalUnits()
	}
	return n
}

// Encode implements core.Arg.
func (g *group) Encode(b []byte) int {
	off := 0
	for _, a := range g.args {
		off += a.Encode(b[off:])
	}
	return off
}

// Decode implements core.Arg.
func (g *group) Decode(b []byte) int {
	off := 0
	for _, a := range g.args {
		off += a.Decode(b[off:])
	}
	return off
}
