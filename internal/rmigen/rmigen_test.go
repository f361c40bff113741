package rmigen

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/threads"
)

// wireBytes encodes a slice of Args the way the core sender does.
func wireBytes(t *testing.T, args []core.Arg) []byte {
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
	_ = units
	return buf
}

type mixed struct {
	N int64
	X float64
	S string
	B []byte
	V []float64
}

func TestStructLowersToProvidedArgs(t *testing.T) {
	plan, err := planFor(reflect.TypeOf(mixed{}))
	if err != nil {
		t.Fatal(err)
	}
	val := mixed{N: 7, X: 2.5, S: "hey", B: []byte{1, 2}, V: []float64{3, 4, 5}}
	typed := plan.newArgs()
	plan.store(reflect.ValueOf(val), typed)

	hand := []core.Arg{
		&core.I64{V: 7}, &core.F64{V: 2.5}, &core.Str{V: "hey"},
		&core.Bytes{V: []byte{1, 2}}, &core.F64Slice{V: []float64{3, 4, 5}},
	}
	tb, hb := wireBytes(t, typed), wireBytes(t, hand)
	if string(tb) != string(hb) {
		t.Fatalf("typed wire bytes differ from hand-written args:\n%v\n%v", tb, hb)
	}
	for i := range typed {
		if typed[i].MarshalUnits() != hand[i].MarshalUnits() {
			t.Fatalf("arg %d marshal units: typed %d, hand %d", i, typed[i].MarshalUnits(), hand[i].MarshalUnits())
		}
	}

	// Round trip through decode.
	var back mixed
	bv := reflect.ValueOf(&back).Elem()
	fresh := plan.newArgs()
	off := 0
	for _, a := range fresh {
		off += a.Decode(tb[off:])
	}
	plan.loadPtr(bv.Addr().UnsafePointer(), fresh)
	if back.N != 7 || back.X != 2.5 || back.S != "hey" || len(back.B) != 2 || len(back.V) != 3 || back.V[2] != 5 {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

func TestScalarPlanAndGroupRet(t *testing.T) {
	// Scalar value types plan as a single provided Arg.
	p, err := planFor(reflect.TypeOf(int64(0)))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.newRet().(*core.I64); !ok {
		t.Fatalf("int64 ret is not a plain I64")
	}

	// Multi-field struct returns pack into a group costing the sum.
	type pair struct {
		A int64
		X float64
	}
	p, err = planFor(reflect.TypeOf(pair{}))
	if err != nil {
		t.Fatal(err)
	}
	ret := p.newRet()
	if ret.WireSize() != 16 || ret.MarshalUnits() != 2 {
		t.Fatalf("group size/units = %d/%d, want 16/2", ret.WireSize(), ret.MarshalUnits())
	}
	p.storeRet(reflect.ValueOf(pair{A: 1, X: 2}), ret)
	buf := make([]byte, ret.WireSize())
	ret.Encode(buf)
	fresh := p.newRet()
	if n := fresh.Decode(buf); n != 16 {
		t.Fatalf("group decode consumed %d", n)
	}
	var out pair
	p.loadRet(reflect.ValueOf(&out).Elem(), fresh)
	if out != (pair{A: 1, X: 2}) {
		t.Fatalf("group round trip = %+v", out)
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
		rt.Call(th, gp, "Add", add.WireArgs(reflect.ValueOf(int64(21))), nil)
		rt.Call(th, gp, "Add", add.WireArgs(reflect.ValueOf(int64(21))), nil)

		tot, err := cls.Bind("Total", voidType, reflect.TypeOf(int64(0)), false)
		if err != nil {
			t.Error(err)
			return
		}
		ret := tot.NewRetArg()
		rt.Call(th, gp, "Total", nil, ret)
		tot.LoadRet(ret, reflect.ValueOf(&total).Elem())

		type scaleArgs = struct {
			V []float64
			K float64
		}
		sc, err := cls.Bind("Scale", reflect.TypeOf(scaleArgs{}), reflect.TypeOf([]float64(nil)), false)
		if err != nil {
			t.Error(err)
			return
		}
		sret := sc.NewRetArg()
		rt.Call(th, gp, "Scale", sc.WireArgs(reflect.ValueOf(scaleArgs{V: []float64{1, 2}, K: 10})), sret)
		sc.LoadRet(sret, reflect.ValueOf(&scaled).Elem())
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
