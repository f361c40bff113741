package rmigen

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/core"
)

// Codec marshals single values of a supported RMI type (int, int64,
// float64, string, []byte, []float64, or a struct of those) to and from the
// exact wire bytes the RMI argument path produces. The collective layer and
// Dist arrays use it to move typed payloads over the untyped byte-level
// plumbing without inventing a second wire format.
//
// The hot entry points are AppendTo and Decode: argument frames (the []Arg
// scratch a marshal runs through) recycle through a per-codec pool, and
// AppendTo writes into a caller-provided buffer, so a warm
// encode-into-reused-buffer of an addressable value performs zero
// allocations. Encode remains as the convenience form that allocates its
// result.
type Codec struct {
	typ reflect.Type
	p   *valuePlan

	// frames pools []Arg scratch. Encoding may always use it (the bytes are
	// copied out before release; slice/string references are cleared so the
	// pool does not retain payloads). Decoding may use it only for plans
	// without slice kinds — a decoded slice aliases the Arg's backing array,
	// which must then escape to the caller, not back into the pool.
	frames sync.Pool
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
	// The pool holds *[]core.Arg: storing the slice header itself would box
	// it on every Put — one allocation per call, exactly what the pool is
	// here to remove.
	c.frames.New = func() any { args := c.p.newArgs(); return &args }
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
// returns the extended slice — the append-style, frame-reusing encode path.
// With an addressable v and a dst of sufficient capacity it performs no
// allocations.
func (c *Codec) AppendTo(v reflect.Value, dst []byte) []byte {
	return c.AppendPtr(c.p.addr(v), dst)
}

// AppendPtr is AppendTo for a caller that holds a pointer to the value (of
// the codec's type): no reflect.Value is built, so the per-element accesses
// of Dist encode without touching reflection.
func (c *Codec) AppendPtr(ptr unsafe.Pointer, dst []byte) []byte {
	frame := c.frames.Get().(*[]core.Arg)
	args := *frame
	c.p.storePtr(ptr, args)
	size := 0
	for _, a := range args {
		size += a.WireSize()
	}
	off := len(dst)
	dst = slices.Grow(dst, size)[:off+size]
	at := off
	for _, a := range args {
		at += a.Encode(dst[at:])
	}
	if at != off+size {
		panic(fmt.Sprintf("rmigen: encode size mismatch: wrote %d of %d", at-off, size))
	}
	c.p.clearRefs(args)
	c.frames.Put(frame)
	return dst
}

// Encode serializes v into the wire bytes the equivalent []Arg would
// produce, in a freshly allocated buffer. Hot paths should prefer AppendTo
// with a reused buffer.
func (c *Codec) Encode(v reflect.Value) []byte {
	return c.AppendTo(v, nil)
}

// Decode deserializes wire bytes into the addressable value into. For plans
// without slice kinds the scratch frame recycles through the codec's pool;
// slice-carrying plans use fresh Args, because the decoded value aliases
// the Arg's backing array (it escapes to the caller).
func (c *Codec) Decode(b []byte, into reflect.Value) {
	c.DecodePtr(b, into.Addr().UnsafePointer())
}

// DecodePtr is Decode into the value (of the codec's type) at ptr.
func (c *Codec) DecodePtr(b []byte, ptr unsafe.Pointer) {
	var args []core.Arg
	var frame *[]core.Arg
	if !c.p.hasSlices {
		frame = c.frames.Get().(*[]core.Arg)
		args = *frame
	} else {
		args = c.p.newArgs()
	}
	off := 0
	for _, a := range args {
		off += a.Decode(b[off:])
	}
	if off != len(b) {
		panic(fmt.Sprintf("rmigen: %d stray bytes decoding %s", len(b)-off, c.typ))
	}
	c.p.loadPtr(ptr, args)
	if frame != nil {
		c.p.clearRefs(args)
		c.frames.Put(frame)
	}
}
