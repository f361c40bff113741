package rmigen

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"unsafe"
)

// Codec marshals single values of a supported RMI type (int, int64,
// float64, string, []byte, []float64, or a struct of those) to and from the
// exact wire bytes the RMI argument path produces. The collective layer and
// Dist arrays use it to move typed payloads over the untyped byte-level
// plumbing without inventing a second wire format.
//
// A codec is its type's plan and nothing else: AppendPtr and DecodePtr view
// the value where it lies, so encoding into a buffer of sufficient capacity,
// and decoding a value without strings or slices, perform no allocations.
type Codec struct {
	typ reflect.Type
	p   *valuePlan
}

// codecCache memoizes plans per type; plan construction is registration-
// style reflection work that need not repeat per call.
var codecCache sync.Map // reflect.Type -> *Codec (or error, see below)

type codecErr struct{ err error }

// CodecFor compiles (or returns the cached) codec for t.
func CodecFor(t reflect.Type) (*Codec, error) {
	if v, ok := codecCache.Load(t); ok {
		if ce, bad := v.(codecErr); bad {
			return nil, ce.err
		}
		return v.(*Codec), nil
	}
	p, err := planFor(t)
	if err != nil {
		err = fmt.Errorf("type %s is not marshallable: %w", t, err)
		codecCache.Store(t, codecErr{err: err})
		return nil, err
	}
	c := &Codec{typ: t, p: p}
	codecCache.Store(t, c)
	return c, nil
}

// Type returns the Go type the codec was compiled for.
func (c *Codec) Type() reflect.Type { return c.typ }

// FixedSize returns the encoded byte count when it is the same for every
// value of the type — all components 8-byte scalars — and 0 when a string or
// slice component makes it vary. Dist uses it to pick the wire form of an
// element access once, at NewDist.
func (c *Codec) FixedSize() int {
	for i := range c.p.fields {
		if !c.p.fields[i].fixed {
			return 0
		}
	}
	return 8 * len(c.p.fields)
}

// AppendTo serializes v (which must be of the codec's type) onto dst and
// returns the extended slice. With an addressable v and a dst of sufficient
// capacity it performs no allocations; a non-addressable v is copied to an
// addressable temporary first.
func (c *Codec) AppendTo(v reflect.Value, dst []byte) []byte {
	if !v.CanAddr() {
		tmp := reflect.New(c.typ).Elem()
		tmp.Set(v)
		v = tmp
	}
	return c.AppendPtr(v.Addr().UnsafePointer(), dst)
}

// AppendPtr is AppendTo for a caller that holds a pointer to the value (of
// the codec's type): no reflect.Value is built, so the per-element accesses
// of Dist encode without touching reflection.
func (c *Codec) AppendPtr(ptr unsafe.Pointer, dst []byte) []byte {
	v := Value{plan: c.p, ptr: ptr}
	size := v.WireSize()
	off := len(dst)
	dst = slices.Grow(dst, size)[:off+size]
	if n := v.Encode(dst[off:]); n != size {
		panic(fmt.Sprintf("rmigen: encode size mismatch: wrote %d of %d", n, size))
	}
	return dst
}

// Encode serializes v into the wire bytes the equivalent []Arg would
// produce, in a freshly allocated buffer. Hot paths should prefer AppendTo
// with a reused buffer.
func (c *Codec) Encode(v reflect.Value) []byte {
	return c.AppendTo(v, nil)
}

// Decode deserializes wire bytes into the addressable value into.
func (c *Codec) Decode(b []byte, into reflect.Value) {
	c.DecodePtr(b, into.Addr().UnsafePointer())
}

// DecodePtr is Decode into the value (of the codec's type) at ptr. What it
// decodes — a collective's result, a Dist element — is the caller's to keep,
// and the storage may have held an earlier value someone still reads (a
// pooled access record, an element a local reader copied out), so a value
// with string or slice components is zeroed first: the decode then allocates
// them fresh where Value.Decode alone would write through the old ones.
func (c *Codec) DecodePtr(b []byte, ptr unsafe.Pointer) {
	if c.FixedSize() == 0 {
		reflect.NewAt(c.typ, ptr).Elem().SetZero()
	}
	v := Value{plan: c.p, ptr: ptr}
	if n := v.Decode(b); n != len(b) {
		panic(fmt.Sprintf("rmigen: %d stray bytes decoding %s", len(b)-n, c.typ))
	}
}
