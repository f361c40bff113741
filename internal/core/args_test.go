package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// roundTrip encodes a set of arguments and decodes into fresh instances,
// returning the decoded set.
func roundTrip(t *testing.T, args []Arg, fresh []Arg) []Arg {
	t.Helper()
	buf, units := encodeArgs(args)
	if units <= 0 && len(args) > 0 {
		t.Fatalf("marshal units = %d", units)
	}
	if got := decodeArgs(buf, fresh); got != units {
		t.Fatalf("decode units %d != encode units %d", got, units)
	}
	return fresh
}

func TestScalarRoundTrip(t *testing.T) {
	out := roundTrip(t,
		[]Arg{&F64{V: -3.75}, &I64{V: -42}, &Str{V: "hé"}, &Bytes{V: []byte{0, 255, 7}}},
		[]Arg{&F64{}, &I64{}, &Str{}, &Bytes{}})
	if out[0].(*F64).V != -3.75 || out[1].(*I64).V != -42 {
		t.Fatal("scalar round trip failed")
	}
	if out[2].(*Str).V != "hé" {
		t.Fatalf("string: %q", out[2].(*Str).V)
	}
	b := out[3].(*Bytes).V
	if len(b) != 3 || b[0] != 0 || b[1] != 255 || b[2] != 7 {
		t.Fatalf("bytes: %v", b)
	}
}

// Property: F64 survives the wire bit-exactly, including NaN and infinities.
func TestF64RoundTripProperty(t *testing.T) {
	f := func(bits uint64) bool {
		in := F64{V: math.Float64frombits(bits)}
		var out F64
		buf, _ := encodeArgs([]Arg{&in})
		decodeArgs(buf, []Arg{&out})
		return math.Float64bits(out.V) == bits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)} {
		in := F64{V: v}
		var out F64
		buf, _ := encodeArgs([]Arg{&in})
		decodeArgs(buf, []Arg{&out})
		if math.Float64bits(out.V) != math.Float64bits(v) {
			t.Fatalf("special value %v corrupted to %v", v, out.V)
		}
	}
}

// Property: I64 round trip over the full range.
func TestI64RoundTripProperty(t *testing.T) {
	f := func(v int64) bool {
		in := I64{V: v}
		var out I64
		buf, _ := encodeArgs([]Arg{&in})
		decodeArgs(buf, []Arg{&out})
		return out.V == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: slices of arbitrary doubles round trip with matching lengths and
// bits, and per-element marshal units.
func TestF64SliceRoundTripProperty(t *testing.T) {
	f := func(vals []float64) bool {
		in := F64Slice{V: vals}
		var out F64Slice
		buf, units := encodeArgs([]Arg{&in})
		if units != len(vals) {
			return false
		}
		decodeArgs(buf, []Arg{&out})
		if len(out.V) != len(vals) {
			return false
		}
		for i := range vals {
			if math.Float64bits(out.V[i]) != math.Float64bits(vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: strings and byte blobs round trip byte-exactly.
func TestBytesStrRoundTripProperty(t *testing.T) {
	f := func(b []byte, s string) bool {
		inB, inS := Bytes{V: b}, Str{V: s}
		var outB Bytes
		var outS Str
		buf, _ := encodeArgs([]Arg{&inB, &inS})
		decodeArgs(buf, []Arg{&outB, &outS})
		if outS.V != s || len(outB.V) != len(b) {
			return false
		}
		for i := range b {
			if outB.V[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: mixed argument lists round trip through one buffer.
func TestMixedArgsRoundTripProperty(t *testing.T) {
	f := func(a int64, b float64, c []float64, d string) bool {
		in := []Arg{&I64{V: a}, &F64{V: b}, &F64Slice{V: c}, &Str{V: d}}
		out := []Arg{&I64{}, &F64{}, &F64Slice{}, &Str{}}
		buf, _ := encodeArgs(in)
		decodeArgs(buf, out)
		if out[0].(*I64).V != a || out[3].(*Str).V != d {
			return false
		}
		if math.Float64bits(out[1].(*F64).V) != math.Float64bits(b) {
			return false
		}
		if len(out[2].(*F64Slice).V) != len(c) {
			return false
		}
		for i := range c {
			if math.Float64bits(out[2].(*F64Slice).V[i]) != math.Float64bits(c[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeSizeMismatchPanics(t *testing.T) {
	buf, _ := encodeArgs([]Arg{&I64{V: 1}, &I64{V: 2}})
	defer func() {
		if recover() == nil {
			t.Error("short decode did not panic")
		}
	}()
	decodeArgs(buf, []Arg{&I64{}}) // one arg short
}

func TestWireSizeMatchesEncoding(t *testing.T) {
	args := []Arg{&F64{}, &I64{}, &F64Slice{V: make([]float64, 7)}, &Bytes{V: make([]byte, 13)}, &Str{V: "abc"}}
	total := 0
	for _, a := range args {
		total += a.WireSize()
	}
	buf, _ := encodeArgs(args)
	if len(buf) != total {
		t.Fatalf("encoded %d bytes, WireSize sum %d", len(buf), total)
	}
}

// encodeArgs marshals args into a fresh buffer, returning it along with the
// total serializer-invocation count: the reference encoding the runtime's
// pooled-buffer send path (marshalArgs) is held to.
func encodeArgs(args []Arg) (buf []byte, units int) {
	total := 0
	for _, a := range args {
		total += a.WireSize()
		units += a.MarshalUnits()
	}
	buf = make([]byte, total)
	off := 0
	for _, a := range args {
		off += a.Encode(buf[off:])
	}
	if off != total {
		panic(fmt.Sprintf("core: encode size mismatch: wrote %d of %d", off, total))
	}
	return buf, units
}

// TestArgDecodeHostileLengths: the length word of a variable-size argument
// may come from another process. Whatever it says, the decoder fails by name
// — argument kind, declared length, bytes available — before it allocates or
// indexes anything with it; 2^33 here used to end the process with "out of
// memory", which no recover catches.
func TestArgDecodeHostileLengths(t *testing.T) {
	word := func(n uint64, tail int) []byte {
		b := make([]byte, 8+tail)
		binary.LittleEndian.PutUint64(b, n)
		return b
	}
	rows := []struct {
		name string
		b    []byte
		want string // with %s for the kind and %d for the element size
	}{
		{"length past the payload", word(17, 16), "core: %s argument declares 17 elements of %d bytes, 16 bytes follow"},
		{"length 2^33", word(1<<33, 8), "core: %s argument declares 8589934592 elements of %d bytes, 8 bytes follow"},
		{"length with the top bit set", word(1<<63, 8), "core: %s argument declares 9223372036854775808 elements of %d bytes, 8 bytes follow"},
		{"8*n overflows", word(1<<61+1, 8), "core: %s argument declares 2305843009213693953 elements of %d bytes, 8 bytes follow"},
		{"truncated header", make([]byte, 5), "core: %s argument truncated: 5 bytes, no room for its length word"},
		{"no bytes at all", nil, "core: %s argument truncated: 0 bytes, no room for its length word"},
	}
	kinds := []struct {
		name string
		elem int
		arg  func() Arg
	}{
		{"F64Slice", 8, func() Arg { return &F64Slice{} }},
		{"Bytes", 1, func() Arg { return &Bytes{} }},
		{"Str", 1, func() Arg { return &Str{} }},
	}
	for _, k := range kinds {
		for _, r := range rows {
			t.Run(k.name+"/"+r.name, func(t *testing.T) {
				want := fmt.Sprintf(r.want, k.name)
				if strings.Contains(r.want, "%d") {
					want = fmt.Sprintf(r.want, k.name, k.elem)
				}
				defer func() {
					if got := fmt.Sprint(recover()); got != want {
						t.Fatalf("decode failed with %q, want %q", got, want)
					}
				}()
				k.arg().Decode(r.b)
			})
		}
	}
}

// truncatedWords are scalar words cut short, as another process may send
// them: TestInvokeHostileWords sends them as an argument and as a result,
// and FuzzArgs starts from them.
var truncatedWords = [][]byte{nil, {1, 2, 3}, {1, 2, 3, 4, 5, 6, 7}}

// FuzzArgs drives bytes from another process through the decoder of every
// provided Arg, alone (the reply path's decodeOne) and as a mixed list (the
// invocation path's decodeArgs). Every input is refused with a named core
// panic, or is consumed exactly and re-encodes to exactly itself.
//
//	go test -run '^$' -fuzz FuzzArgs -fuzztime 30s ./internal/core
func FuzzArgs(f *testing.F) {
	for _, b := range truncatedWords {
		f.Add(b)
	}
	mixed, _ := encodeArgs([]Arg{&I64{V: -3}, &Str{V: "hé"}, &F64{V: 0.5}, &Bytes{V: []byte{7}}, &F64Slice{V: []float64{1, 2}}})
	f.Add(mixed)
	f.Add(binary.LittleEndian.AppendUint64(nil, 1<<63))
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, args := range [][]Arg{
			{&I64{}}, {&F64{}}, {&F64Slice{}}, {&Bytes{}}, {&Str{}},
			{&I64{}, &Str{}, &F64{}, &Bytes{}, &F64Slice{}},
		} {
			refusal := decodeRefusal(b, args)
			if refusal != "" {
				if !strings.HasPrefix(refusal, "core: ") {
					t.Fatalf("decoding %q into %d Args failed with %q, want a named core refusal", b, len(args), refusal)
				}
				continue
			}
			if back, _ := encodeArgs(args); !bytes.Equal(back, b) {
				t.Fatalf("decoding %q into %d Args re-encodes to %q", b, len(args), back)
			}
		}
	})
}

// decodeRefusal decodes b into args, with decodeOne for one Arg, and returns
// the text of the panic that refused it ("" if none).
func decodeRefusal(b []byte, args []Arg) (refusal string) {
	defer func() {
		if r := recover(); r != nil {
			refusal = fmt.Sprint(r)
		}
	}()
	if len(args) == 1 {
		decodeOne(b, args[0])
	} else {
		decodeArgs(b, args)
	}
	return ""
}
