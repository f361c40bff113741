// Package core implements the paper's primary contribution: a lean CC++
// runtime ("CC++/ThAM") layered directly on Active Messages and the
// non-preemptive threads package, providing MPMD remote method invocation
// with method-stub caching, persistent receive buffers, and a polling thread.
//
// CC++'s front-end translator is replaced by an explicit registration API
// (see Class and Method); the generated stubs it would emit correspond to
// the marshal/dispatch path in rmi.go, which is the code path the paper
// measures.
package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"repro/internal/wire"
)

// Arg is one marshallable RMI argument or return value. Encode and Decode
// move the value through the wire representation; WireSize is the encoded
// byte count; MarshalUnits is how many serializer invocations the CC++
// compiler would emit for the value (one per scalar, one per element for
// arrays — the paper: "the compiler must invoke a method to serialize each
// argument", which is why marshalling arrays is expensive).
type Arg interface {
	WireSize() int
	MarshalUnits() int
	Encode(b []byte) int
	Decode(b []byte) int
}

// The provided Args below are one-field structs, so each has the memory
// layout of the Go type it carries, and a value of that type can be viewed
// as its Arg where it lies: (*I64)(unsafe.Pointer(&n)). internal/rmigen
// rests on that. An Arg that grew a second field would break it silently;
// the array assignment under each declaration fails the build instead.

// F64 is a double argument.
type F64 struct{ V float64 }

var _ [unsafe.Sizeof(float64(0))]struct{} = [unsafe.Sizeof(F64{})]struct{}{}

// WireSize implements Arg.
func (*F64) WireSize() int { return 8 }

// MarshalUnits implements Arg.
func (*F64) MarshalUnits() int { return 1 }

// Encode implements Arg.
func (a *F64) Encode(b []byte) int { binary.LittleEndian.PutUint64(b, math.Float64bits(a.V)); return 8 }

// Decode implements Arg.
func (a *F64) Decode(b []byte) int {
	a.V = math.Float64frombits(scalarWord("F64", b))
	return 8
}

// I64 is a word (integer) argument.
type I64 struct{ V int64 }

var _ [unsafe.Sizeof(int64(0))]struct{} = [unsafe.Sizeof(I64{})]struct{}{}

// WireSize implements Arg.
func (*I64) WireSize() int { return 8 }

// MarshalUnits implements Arg.
func (*I64) MarshalUnits() int { return 1 }

// Encode implements Arg.
func (a *I64) Encode(b []byte) int { binary.LittleEndian.PutUint64(b, uint64(a.V)); return 8 }

// Decode implements Arg.
func (a *I64) Decode(b []byte) int { a.V = int64(scalarWord("I64", b)); return 8 }

// F64Slice is an array-of-double argument (the paper's ARRAYOFDOUBLE). Its
// length is part of the wire format, so the receiving stub can size the
// destination; each element costs one serializer invocation.
type F64Slice struct{ V []float64 }

var _ [unsafe.Sizeof([]float64(nil))]struct{} = [unsafe.Sizeof(F64Slice{})]struct{}{}

// WireSize implements Arg.
func (a *F64Slice) WireSize() int { return 8 + 8*len(a.V) }

// MarshalUnits implements Arg.
func (a *F64Slice) MarshalUnits() int { return len(a.V) }

// Encode implements Arg.
func (a *F64Slice) Encode(b []byte) int {
	binary.LittleEndian.PutUint64(b, uint64(len(a.V)))
	off := 8
	for _, v := range a.V {
		binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v))
		off += 8
	}
	return off
}

// Decode implements Arg.
//
//mpmd:coldpath grows the destination only when the payload outruns its capacity; warm decodes reuse it
func (a *F64Slice) Decode(b []byte) int {
	n := lenWord("F64Slice", b, 8)
	if cap(a.V) < n {
		a.V = make([]float64, n)
	}
	a.V = a.V[:n]
	off := 8
	for i := 0; i < n; i++ {
		a.V[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
		off += 8
	}
	return off
}

// Bytes is a raw byte-buffer argument with a single serializer invocation
// (a user-provided shallow marshal, the cheapest possible CC++ argument).
type Bytes struct{ V []byte }

var _ [unsafe.Sizeof([]byte(nil))]struct{} = [unsafe.Sizeof(Bytes{})]struct{}{}

// WireSize implements Arg.
func (a *Bytes) WireSize() int { return 8 + len(a.V) }

// MarshalUnits implements Arg.
func (*Bytes) MarshalUnits() int { return 1 }

// Encode implements Arg.
func (a *Bytes) Encode(b []byte) int {
	binary.LittleEndian.PutUint64(b, uint64(len(a.V)))
	copy(b[8:], a.V)
	return 8 + len(a.V)
}

// Decode implements Arg.
//
//mpmd:coldpath grows the destination only when the payload outruns its capacity; warm decodes reuse it
func (a *Bytes) Decode(b []byte) int {
	n := lenWord("Bytes", b, 1)
	if cap(a.V) < n {
		a.V = make([]byte, n)
	}
	a.V = a.V[:n]
	copy(a.V, b[8:8+n])
	return 8 + n
}

// Str is a string argument (used by the built-in object-creation method).
type Str struct{ V string }

var _ [unsafe.Sizeof("")]struct{} = [unsafe.Sizeof(Str{})]struct{}{}

// WireSize implements Arg.
func (a *Str) WireSize() int { return 8 + len(a.V) }

// MarshalUnits implements Arg.
func (*Str) MarshalUnits() int { return 1 }

// Encode implements Arg.
func (a *Str) Encode(b []byte) int {
	binary.LittleEndian.PutUint64(b, uint64(len(a.V)))
	copy(b[8:], a.V)
	return 8 + len(a.V)
}

// Decode implements Arg.
//
//mpmd:coldpath a string argument must copy out of the recycled wire buffer; strings are immutable
func (a *Str) Decode(b []byte) int {
	n := lenWord("Str", b, 1)
	a.V = string(b[8 : 8+n])
	return 8 + n
}

// scalarWord reads the word a scalar argument is. The bytes may have crossed
// a process boundary, so a truncated word is refused by name before it is
// read.
func scalarWord(kind string, b []byte) uint64 {
	if len(b) < 8 {
		panic(fmt.Sprintf("core: %s argument truncated: %d bytes, a word is 8", kind, len(b)))
	}
	return binary.LittleEndian.Uint64(b)
}

// lenWord reads the length word that opens a variable-size argument and
// holds it to the bytes that follow, elem bytes per element. The word may
// have crossed a process boundary, so it is checked before anything is
// allocated or indexed with it: one comparison covers a length past the
// payload, one with the top bit set, and one whose byte count overflows.
func lenWord(kind string, b []byte, elem int) int {
	if len(b) < 8 {
		panic(fmt.Sprintf("core: %s argument truncated: %d bytes, no room for its length word", kind, len(b)))
	}
	n := binary.LittleEndian.Uint64(b)
	if n > uint64(len(b)-8)/uint64(elem) {
		panic(fmt.Sprintf("core: %s argument declares %d elements of %d bytes, %d bytes follow", kind, n, elem, len(b)-8))
	}
	return int(n)
}

// marshalArgs encodes args into a pooled wire buffer sized for the encoded
// arguments plus extra trailing bytes (the cold path appends the qualified
// method name there). It returns nil when there is nothing to send at all —
// the warm null-RMI case, which must stay a short AM. argLen is the encoded
// argument byte count (excluding extra) and units the serializer-invocation
// count; both feed the modelled marshalling charge. Ownership of the buffer passes to the caller (typically straight
// through to the message layer).
//
//mpmd:hotpath
func marshalArgs(args []Arg, extra int) (buf *wire.Buf, argLen, units int) {
	for _, a := range args {
		argLen += a.WireSize()
		units += a.MarshalUnits()
	}
	if argLen+extra == 0 {
		return nil, 0, units
	}
	buf = wire.Get(argLen + extra)
	b := buf.Bytes()
	off := 0
	for _, a := range args {
		off += a.Encode(b[off:])
	}
	if off != argLen {
		panic(fmt.Sprintf("core: encode size mismatch: wrote %d of %d", off, argLen))
	}
	return buf, argLen, units
}

// marshalOne encodes a single return Arg into a pooled buffer — the reply
// path's allocation-free way to encode one value.
//
//mpmd:hotpath
func marshalOne(ret Arg) (buf *wire.Buf, n, units int) {
	n = ret.WireSize()
	units = ret.MarshalUnits()
	if n == 0 {
		return nil, 0, units
	}
	buf = wire.Get(n)
	if off := ret.Encode(buf.Bytes()); off != n {
		panic(fmt.Sprintf("core: encode size mismatch: wrote %d of %d", off, n))
	}
	return buf, n, units
}

// decodeOne decodes a single Arg from buf — the reply path's
// allocation-free counterpart of decodeArgs(buf, []Arg{ret}).
//
//mpmd:hotpath
func decodeOne(buf []byte, ret Arg) (units int) {
	off := ret.Decode(buf)
	if off != len(buf) {
		panic(fmt.Sprintf("core: decode size mismatch: read %d of %d", off, len(buf)))
	}
	return ret.MarshalUnits()
}

// decodeArgs unmarshals buf into the given argument instances, returning the
// serializer-invocation count.
//
//mpmd:hotpath
func decodeArgs(buf []byte, args []Arg) (units int) {
	off := 0
	for _, a := range args {
		off += a.Decode(buf[off:])
		units += a.MarshalUnits()
	}
	if off != len(buf) {
		panic(fmt.Sprintf("core: decode size mismatch: read %d of %d", off, len(buf)))
	}
	return units
}
