package rmigen

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/race"
	"repro/internal/threads"
)

// wire encodes Args the way the core sender does, returning the bytes and
// the summed marshal units.
func wire(t *testing.T, args ...core.Arg) ([]byte, int) {
	t.Helper()
	total, units := 0, 0
	for _, a := range args {
		total += a.WireSize()
		units += a.MarshalUnits()
	}
	buf := make([]byte, total)
	off := 0
	for _, a := range args {
		off += a.Encode(buf[off:])
	}
	if off != total {
		t.Fatalf("encode wrote %d of %d", off, total)
	}
	return buf, units
}

type mixed struct {
	N int64
	X float64
	S string
	B []byte
	V []float64
}

type pair struct {
	A int64
	X float64
}

// TestStructLowersToProvidedArgs holds the façade's one promise: a typed
// value, viewed in place as one Value, has the bytes, the size and the
// summed marshal units of the hand-written Args of its components — for
// every supported kind, as a struct field and as a scalar (non-struct) type
// — and decodes back to itself.
func TestStructLowersToProvidedArgs(t *testing.T) {
	cases := []struct {
		name string
		val  any
		hand []core.Arg
	}{
		{"all five kinds", mixed{N: 7, X: 2.5, S: "hey", B: []byte{1, 2}, V: []float64{3, 4, 5}}, []core.Arg{
			&core.I64{V: 7}, &core.F64{V: 2.5}, &core.Str{V: "hey"},
			&core.Bytes{V: []byte{1, 2}}, &core.F64Slice{V: []float64{3, 4, 5}}}},
		{"multi-field return", pair{A: 1, X: 2}, []core.Arg{&core.I64{V: 1}, &core.F64{V: 2}}},
		{"scalar int", int(-9), []core.Arg{&core.I64{V: -9}}},
		{"scalar int64", int64(1) << 40, []core.Arg{&core.I64{V: 1 << 40}}},
		{"scalar float64", 0.125, []core.Arg{&core.F64{V: 0.125}}},
		{"scalar string", "s", []core.Arg{&core.Str{V: "s"}}},
		{"scalar []byte", []byte{9, 8, 7}, []core.Arg{&core.Bytes{V: []byte{9, 8, 7}}}},
		{"scalar []float64", []float64{1.5}, []core.Arg{&core.F64Slice{V: []float64{1.5}}}},
		{"empty slices", mixed{}, []core.Arg{&core.I64{}, &core.F64{}, &core.Str{}, &core.Bytes{}, &core.F64Slice{}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			typ := reflect.TypeOf(c.val)
			plan, err := planFor(typ)
			if err != nil {
				t.Fatal(err)
			}
			in := reflect.New(typ)
			in.Elem().Set(reflect.ValueOf(c.val))
			typed := &Value{plan: plan, ptr: in.UnsafePointer()}
			tb, tu := wire(t, typed)
			hb, hu := wire(t, c.hand...)
			if string(tb) != string(hb) {
				t.Fatalf("typed wire bytes differ from hand-written args:\n%v\n%v", tb, hb)
			}
			if typed.WireSize() != len(hb) || tu != hu {
				t.Fatalf("size/units = %d/%d, hand-written %d/%d", typed.WireSize(), tu, len(hb), hu)
			}
			back := plan.newValue()
			if n := back.Decode(tb); n != len(tb) {
				t.Fatalf("decode consumed %d of %d", n, len(tb))
			}
			got := reflect.NewAt(typ, back.ptr).Elem().Interface()
			if !reflect.DeepEqual(got, c.val) {
				t.Fatalf("round trip = %+v, want %+v", got, c.val)
			}
			if back.MarshalUnits() != hu {
				t.Fatalf("decoded units = %d, want %d", back.MarshalUnits(), hu)
			}
		})
	}
}

// TestValueDecodeHostileLengths: a Value delegates to the provided Args, so
// a length word from another process fails in it the way it fails in them —
// by name, before anything is allocated or indexed (core's
// TestArgDecodeHostileLengths has the decoders' own rows).
func TestValueDecodeHostileLengths(t *testing.T) {
	word := func(n uint64, tail int) []byte {
		b := make([]byte, 8+tail)
		binary.LittleEndian.PutUint64(b, n)
		return b
	}
	for _, val := range []any{"", []byte(nil), []float64(nil), mixed{}} {
		typ := reflect.TypeOf(val)
		plan, err := planFor(typ)
		if err != nil {
			t.Fatal(err)
		}
		prefix := 0
		if typ.Kind() == reflect.Struct {
			prefix = 16 // N and X precede the first length word
		}
		for name, b := range map[string][]byte{
			"length past the payload": word(9, 8),
			"top bit set":             word(1<<63, 8),
			"8*n overflows":           word(1<<61+1, 8),
			"truncated header":        make([]byte, 5),
		} {
			t.Run(typ.String()+"/"+name, func(t *testing.T) {
				defer func() {
					msg := fmt.Sprint(recover())
					if !strings.HasPrefix(msg, "core: ") || !strings.Contains(msg, "argument") {
						t.Fatalf("hostile bytes failed as %q, want a named core panic", msg)
					}
				}()
				plan.newValue().Decode(append(make([]byte, prefix), b...))
			})
		}
	}
}

func TestPlanErrors(t *testing.T) {
	cases := []struct {
		typ  reflect.Type
		want string
	}{
		{reflect.TypeOf(struct{ C complex128 }{}), "unsupported"},
		{reflect.TypeOf(struct{ n int64 }{}), "unexported"},
		{reflect.TypeOf(struct{}{}), "no exported fields"},
		{reflect.TypeOf(map[string]int{}), "unsupported"},
	}
	for _, c := range cases {
		if _, err := planFor(c.typ); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("planFor(%s) error = %v, want containing %q", c.typ, err, c.want)
		}
	}
}

// calc is a processor object used by the derivation tests.
type calc struct {
	total int64
	hits  int64
}

func (c *calc) Add(t *threads.Thread, n int64) { c.total += n }

func (c *calc) Total(t *threads.Thread) int64 { return c.total }

func (c *calc) Scale(t *threads.Thread, args struct {
	V []float64
	K float64
}) []float64 {
	out := make([]float64, len(args.V))
	for i, v := range args.V {
		out[i] = v * args.K
	}
	return out
}

// Helper has no thread parameter: not an RMI method, must be skipped.
func (c *calc) Helper() int { return 0 }

func (c *calc) RMIOptions() map[string]MethodOpts {
	return map[string]MethodOpts{"Scale": {Threaded: true}}
}

func TestDeriveClass(t *testing.T) {
	cls, err := DeriveClass(reflect.TypeOf((*calc)(nil)))
	if err != nil {
		t.Fatal(err)
	}
	if cls.Name != "calc" {
		t.Fatalf("name = %q", cls.Name)
	}
	if got := strings.Join(cls.names, ","); got != "Add,Scale,Total" {
		t.Fatalf("methods = %s", got)
	}
	if _, err := cls.Method("Helper"); err == nil {
		t.Fatal("Helper derived as RMI method")
	}
	for _, cm := range cls.Core.Methods {
		if cm.Name == "Scale" && !cm.Threaded {
			t.Fatal("Scale lost its Threaded flag")
		}
	}
}

func TestDeriveEndToEnd(t *testing.T) {
	m := machine.New(machine.SP1997(), 2)
	rt := core.NewRuntime(m)
	if _, err := Register(rt, reflect.TypeOf((*calc)(nil))); err != nil {
		t.Fatal(err)
	}
	gp := rt.CreateObject(1, "calc")
	var total int64
	var scaled []float64
	rt.OnNode(0, func(th *threads.Thread) {
		cls, err := Lookup(rt, reflect.TypeOf((*calc)(nil)))
		if err != nil {
			t.Error(err)
			return
		}
		add, err := cls.Bind("Add", reflect.TypeOf(int64(0)), voidType, false)
		if err != nil {
			t.Error(err)
			return
		}
		n := int64(21)
		for i := 0; i < 2; i++ {
			call := add.NewCall(unsafe.Pointer(&n), nil)
			rt.Call(th, gp, "Add", call.Args(), call.Ret())
			call.Release()
		}

		tot, err := cls.Bind("Total", voidType, reflect.TypeOf(int64(0)), false)
		if err != nil {
			t.Error(err)
			return
		}
		call := tot.NewCall(nil, unsafe.Pointer(&total))
		rt.Call(th, gp, "Total", call.Args(), call.Ret())
		call.Release()

		type scaleArgs = struct {
			V []float64
			K float64
		}
		sc, err := cls.Bind("Scale", reflect.TypeOf(scaleArgs{}), reflect.TypeOf([]float64(nil)), false)
		if err != nil {
			t.Error(err)
			return
		}
		sa := scaleArgs{V: []float64{1, 2}, K: 10}
		call = sc.NewCall(unsafe.Pointer(&sa), unsafe.Pointer(&scaled))
		rt.Call(th, gp, "Scale", call.Args(), call.Ret())
		call.Release()
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if total != 42 {
		t.Fatalf("total = %d, want 42", total)
	}
	if len(scaled) != 2 || scaled[0] != 10 || scaled[1] != 20 {
		t.Fatalf("scaled = %v", scaled)
	}
}

// TestTrampolineAllocs pins what the receiver's trampoline allocates per
// call, frame in hand, beyond the method body: nothing for a method with an
// argument — it is handed the frame's own value, where the parent of the
// view design (11097ac) built one with reflect.New per call and read 1 — and
// what reflect.Call returns, the result and the slice it comes in, for a
// method with a result (the parent read 3: an addressable temporary to
// marshal it from besides).
func TestTrampolineAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cls, err := DeriveClass(reflect.TypeOf((*calc)(nil)))
	if err != nil {
		t.Fatal(err)
	}
	self := &calc{}
	budget := map[string]float64{"Add": 0, "Total": 2}
	for _, cm := range cls.Core.Methods {
		want, ok := budget[cm.Name]
		if !ok {
			continue
		}
		var args []core.Arg
		var ret core.Arg
		if cm.NewArgs != nil {
			args = cm.NewArgs()
			args[0].Decode([]byte{3, 0, 0, 0, 0, 0, 0, 0})
		}
		if cm.NewRet != nil {
			ret = cm.NewRet()
		}
		if got := testing.AllocsPerRun(200, func() { cm.Fn(nil, self, args, ret) }); got != want {
			t.Errorf("%s: trampoline allocates %.2f/call, want %v", cm.Name, got, want)
		}
	}
	if self.total != 3*201 {
		t.Errorf("Add ran to a total of %d, want %d", self.total, 3*201)
	}
}

// badOpts misdeclares RMIOptions (wrong return type): deriving must fail
// rather than silently dropping the Threaded/Atomic flags.
type badOpts struct{}

func (b *badOpts) Work(t *threads.Thread) {}

func (b *badOpts) RMIOptions() map[string]bool { return nil }

func TestMisdeclaredRMIOptions(t *testing.T) {
	_, err := DeriveClass(reflect.TypeOf((*badOpts)(nil)))
	if err == nil || !strings.Contains(err.Error(), "OptionsProvider") {
		t.Fatalf("misdeclared RMIOptions: %v", err)
	}
}

func TestDeriveErrors(t *testing.T) {
	type plain struct{ X int64 }
	if _, err := DeriveClass(reflect.TypeOf((*plain)(nil))); err == nil ||
		!strings.Contains(err.Error(), "no RMI methods") {
		t.Errorf("no-method struct: %v", err)
	}
	if _, err := DeriveClass(reflect.TypeOf(plain{})); err == nil {
		t.Error("non-pointer type accepted")
	}
}

func TestBindErrors(t *testing.T) {
	cls, err := DeriveClass(reflect.TypeOf((*calc)(nil)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cls.Method("Sub"); err == nil || !strings.Contains(err.Error(), "Add, Scale, Total") {
		t.Errorf("unknown method error should list methods: %v", err)
	}
	if _, err := cls.Bind("Add", reflect.TypeOf("x"), voidType, false); err == nil ||
		!strings.Contains(err.Error(), "argument type mismatch") {
		t.Errorf("wrong arg type: %v", err)
	}
	if _, err := cls.Bind("Add", reflect.TypeOf(int64(0)), reflect.TypeOf(int64(0)), false); err == nil ||
		!strings.Contains(err.Error(), "returns nothing") {
		t.Errorf("ret for void method: %v", err)
	}
	if _, err := cls.Bind("Total", voidType, reflect.TypeOf(3.0), false); err == nil ||
		!strings.Contains(err.Error(), "result type mismatch") {
		t.Errorf("wrong ret type: %v", err)
	}
	if _, err := cls.Bind("Total", voidType, nil, true); err == nil ||
		!strings.Contains(err.Error(), "one-way") {
		t.Errorf("one-way to returning method: %v", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	m := machine.New(machine.SP1997(), 1)
	rt := core.NewRuntime(m)
	typ := reflect.TypeOf((*calc)(nil))
	if _, err := Register(rt, typ); err != nil {
		t.Fatal(err)
	}
	if _, err := Register(rt, typ); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate register: %v", err)
	}
	if _, err := Lookup(rt, reflect.TypeOf((*struct{ X int64 })(nil))); err == nil {
		t.Error("lookup of unregistered type succeeded")
	}
}

// TestCodecAppendToAllocFree pins the collective hot path's allocation
// budget: encoding an addressable non-slice value into a reused buffer and
// decoding it back must not allocate — the argument frames recycle through
// the codec pool and the buffer is caller-owned.
func TestCodecAppendToAllocFree(t *testing.T) {
	type point struct {
		X, Y int64
		W    float64
	}
	c, err := CodecFor(reflect.TypeOf(point{}))
	if err != nil {
		t.Fatal(err)
	}
	in := point{X: 7, Y: -3, W: 2.5}
	src := reflect.ValueOf(&in).Elem()
	buf := c.AppendTo(src, nil)
	var out point
	dst := reflect.ValueOf(&out).Elem()
	c.Decode(buf, dst)
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		buf = c.AppendTo(src, buf[:0])
	}); allocs > 0 {
		t.Fatalf("AppendTo into reused buffer allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		c.Decode(buf, dst)
	}); allocs > 0 {
		t.Fatalf("Decode of pooled-frame plan allocates %.1f/op, want 0", allocs)
	}
}

// TestCodecAppendToSliceSafety: a slice-carrying type still round-trips
// correctly through AppendTo, the pooled encode frame does not retain the
// application's slice, and decoded values stay stable after later decodes
// (no aliasing into recycled scratch).
func TestCodecAppendToSliceSafety(t *testing.T) {
	type blob struct {
		Tag  string
		Data []byte
	}
	c, err := CodecFor(reflect.TypeOf(blob{}))
	if err != nil {
		t.Fatal(err)
	}
	one := blob{Tag: "one", Data: []byte{1, 2, 3, 4}}
	bufOne := c.AppendTo(reflect.ValueOf(&one).Elem(), nil)
	var gotOne blob
	c.Decode(bufOne, reflect.ValueOf(&gotOne).Elem())

	// A second encode/decode cycle through the same codec must not disturb
	// the first decoded value.
	two := blob{Tag: "two", Data: []byte{9, 9, 9, 9, 9, 9}}
	bufTwo := c.AppendTo(reflect.ValueOf(&two).Elem(), nil)
	var gotTwo blob
	c.Decode(bufTwo, reflect.ValueOf(&gotTwo).Elem())

	if gotOne.Tag != "one" || string(gotOne.Data) != string([]byte{1, 2, 3, 4}) {
		t.Fatalf("first decode disturbed by second: %+v", gotOne)
	}
	if gotTwo.Tag != "two" || len(gotTwo.Data) != 6 {
		t.Fatalf("second decode wrong: %+v", gotTwo)
	}
}

// BenchmarkCodecAppendTo is the benchmem gate companion of the alloc test:
// CI runs it with -benchmem so a pooling regression is visible as a
// non-zero allocs/op in the throughput trajectory.
func BenchmarkCodecAppendTo(b *testing.B) {
	type point struct {
		X, Y int64
		W    float64
	}
	c, err := CodecFor(reflect.TypeOf(point{}))
	if err != nil {
		b.Fatal(err)
	}
	in := point{X: 7, Y: -3, W: 2.5}
	src := reflect.ValueOf(&in).Elem()
	var out point
	dst := reflect.ValueOf(&out).Elem()
	buf := c.AppendTo(src, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = c.AppendTo(src, buf[:0])
		c.Decode(buf, dst)
	}
}
