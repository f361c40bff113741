package core

import (
	"testing"
	"time"

	"repro/internal/am"
	"repro/internal/machine"
	"repro/internal/threads"
)

// counterClass is a simple processor object used throughout the tests.
type counter struct {
	n   int64
	log []int64
}

func counterClass() *Class {
	return &Class{
		Name: "Counter",
		New:  func() any { return &counter{} },
		Methods: []*Method{
			{
				Name: "nop",
				Fn:   func(t *threads.Thread, self any, args []Arg, ret Arg) {},
			},
			{
				Name:     "nopThreaded",
				Threaded: true,
				Fn:       func(t *threads.Thread, self any, args []Arg, ret Arg) {},
			},
			{
				Name:     "addAtomic",
				Atomic:   true,
				Threaded: true,
				NewArgs:  func() []Arg { return []Arg{&I64{}} },
				Fn: func(t *threads.Thread, self any, args []Arg, ret Arg) {
					c := self.(*counter)
					v := args[0].(*I64).V
					c.n += v
					c.log = append(c.log, v)
				},
			},
			{
				Name:    "add",
				NewArgs: func() []Arg { return []Arg{&I64{}} },
				Fn: func(t *threads.Thread, self any, args []Arg, ret Arg) {
					self.(*counter).n += args[0].(*I64).V
				},
			},
			{
				Name:   "get",
				NewRet: func() Arg { return &I64{} },
				Fn: func(t *threads.Thread, self any, args []Arg, ret Arg) {
					ret.(*I64).V = self.(*counter).n
				},
			},
			{
				Name:    "sum",
				NewArgs: func() []Arg { return []Arg{&F64Slice{}} },
				NewRet:  func() Arg { return &F64{} },
				Fn: func(t *threads.Thread, self any, args []Arg, ret Arg) {
					s := 0.0
					for _, v := range args[0].(*F64Slice).V {
						s += v
					}
					ret.(*F64).V = s
				},
			},
			{
				// Mirrors the paper's `lA = gpObj->get(gpA)`: the source
				// "global pointer" travels as a word argument.
				Name:    "getArray",
				NewArgs: func() []Arg { return []Arg{&I64{}} },
				NewRet:  func() Arg { return &F64Slice{} },
				Fn: func(t *threads.Thread, self any, args []Arg, ret Arg) {
					n := int(args[0].(*I64).V)
					out := make([]float64, n)
					for i := range out {
						out[i] = float64(i) * 1.5
					}
					ret.(*F64Slice).V = out
				},
			},
		},
	}
}

func newRig(nodes int, opts Options) *Runtime {
	rt := NewRuntimeOpts(machine.New(machine.SP1997(), nodes), opts)
	rt.RegisterClass(counterClass())
	return rt
}

func TestNullRMISimpleLatency(t *testing.T) {
	rt := newRig(2, Options{})
	gp := rt.CreateObject(1, "Counter")
	var warm time.Duration
	rt.OnNode(0, func(th *threads.Thread) {
		rt.CallSimple(th, gp, "nop", nil, nil) // cold: resolves the stub
		start := th.Now()
		rt.CallSimple(th, gp, "nop", nil, nil)
		warm = time.Duration(th.Now() - start)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// Paper: 0-Word Simple is 67 µs, 12 µs above the 55 µs AM round trip.
	if warm < 55*time.Microsecond || warm > 85*time.Microsecond {
		t.Fatalf("0-word simple RMI = %v, want ~67µs", warm)
	}
}

func TestColdWarmStubCache(t *testing.T) {
	rt := newRig(2, Options{})
	gp := rt.CreateObject(1, "Counter")
	var cold, warm time.Duration
	rt.OnNode(0, func(th *threads.Thread) {
		start := th.Now()
		rt.CallSimple(th, gp, "nop", nil, nil)
		cold = time.Duration(th.Now() - start)
		start = th.Now()
		rt.CallSimple(th, gp, "nop", nil, nil)
		warm = time.Duration(th.Now() - start)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if cold <= warm {
		t.Fatalf("cold %v not slower than warm %v", cold, warm)
	}
	hits, misses := rt.StubCacheStats()
	if misses != 1 || hits != 1 {
		t.Fatalf("stub cache hits=%d misses=%d, want 1/1", hits, misses)
	}
	if n := rt.m.Node(0).Acct.Counter(machine.CntRMICold); n != 1 {
		t.Fatalf("cold RMIs = %d", n)
	}
}

func TestArgsAndReturnRoundTrip(t *testing.T) {
	rt := newRig(2, Options{})
	gp := rt.CreateObject(1, "Counter")
	var got int64
	var sum float64
	rt.OnNode(0, func(th *threads.Thread) {
		rt.Call(th, gp, "add", []Arg{&I64{V: 5}}, nil)
		rt.Call(th, gp, "add", []Arg{&I64{V: 37}}, nil)
		var ret I64
		rt.Call(th, gp, "get", nil, &ret)
		got = ret.V
		var s F64
		rt.Call(th, gp, "sum", []Arg{&F64Slice{V: []float64{1, 2, 3.5}}}, &s)
		sum = s.V
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("counter = %d", got)
	}
	if sum != 6.5 {
		t.Fatalf("sum = %v", sum)
	}
	if c := rt.Object(gp).(*counter); c.n != 42 {
		t.Fatalf("object state = %d", c.n)
	}
}

func TestReturnArrayDoubleCopy(t *testing.T) {
	// A bulk read (array return) must cost more than a bulk write (array
	// argument) because return data is copied twice at the initiator.
	rt := newRig(2, Options{})
	gp := rt.CreateObject(1, "Counter")
	var writeTime, readTime time.Duration
	rt.OnNode(0, func(th *threads.Thread) {
		arr := make([]float64, 20)
		var s F64
		rt.Call(th, gp, "sum", []Arg{&F64Slice{V: arr}}, &s) // warm up both stubs
		var ret F64Slice
		rt.Call(th, gp, "getArray", []Arg{&I64{V: 20}}, &ret)

		start := th.Now()
		rt.Call(th, gp, "sum", []Arg{&F64Slice{V: arr}}, &s)
		writeTime = time.Duration(th.Now() - start)

		start = th.Now()
		rt.Call(th, gp, "getArray", []Arg{&I64{V: 20}}, &ret)
		readTime = time.Duration(th.Now() - start)

		for i, v := range ret.V {
			if v != float64(i)*1.5 {
				t.Errorf("ret[%d] = %v", i, v)
			}
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if readTime <= writeTime {
		t.Fatalf("bulk read %v not slower than bulk write %v", readTime, writeTime)
	}
}

func TestAtomicMethodSerializes(t *testing.T) {
	rt := newRig(4, Options{})
	gp := rt.CreateObject(3, "Counter")
	for i := 0; i < 3; i++ {
		i := i
		rt.OnNode(i, func(th *threads.Thread) {
			for j := 0; j < 5; j++ {
				rt.Call(th, gp, "addAtomic", []Arg{&I64{V: int64(i*10 + j)}}, nil)
			}
		})
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	c := rt.Object(gp).(*counter)
	want := int64(0)
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			want += int64(i*10 + j)
		}
	}
	if c.n != want {
		t.Fatalf("atomic sum = %d, want %d", c.n, want)
	}
	if len(c.log) != 15 {
		t.Fatalf("%d atomic invocations recorded", len(c.log))
	}
}

func TestThreadedRMISpawnsThread(t *testing.T) {
	rt := newRig(2, Options{})
	gp := rt.CreateObject(1, "Counter")
	rt.OnNode(0, func(th *threads.Thread) {
		rt.Call(th, gp, "nopThreaded", nil, nil) // cold
		rt.Call(th, gp, "nopThreaded", nil, nil) // warm
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if n := rt.m.Node(1).Acct.Counter(machine.CntThreadCreate); n < 2 {
		t.Fatalf("receiver created %d threads, want >= 2", n)
	}
}

func TestNonThreadedRMICreatesNoThread(t *testing.T) {
	rt := newRig(2, Options{})
	gp := rt.CreateObject(1, "Counter")
	rt.OnNode(0, func(th *threads.Thread) {
		rt.CallSimple(th, gp, "nop", nil, nil)
		rt.CallSimple(th, gp, "nop", nil, nil)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if n := rt.m.Node(1).Acct.Counter(machine.CntThreadCreate); n != 0 {
		t.Fatalf("receiver created %d threads for non-threaded RMI", n)
	}
}

func TestOneWayAndFutures(t *testing.T) {
	rt := newRig(2, Options{})
	gp := rt.CreateObject(1, "Counter")
	var got int64
	rt.OnNode(0, func(th *threads.Thread) {
		rt.CallOneWay(th, gp, "add", []Arg{&I64{V: 7}})
		f := rt.CallAsync(th, gp, "add", []Arg{&I64{V: 8}}, nil)
		f.Wait(th)
		var ret I64
		rt.Call(th, gp, "get", nil, &ret)
		got = ret.V
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// The one-way add may land before or after the async one, but both must
	// land before get's reply is computed only if ordering holds per pair —
	// our network is FIFO per (src,dst), so 7 then 8 then get.
	if got != 15 {
		t.Fatalf("counter = %d, want 15", got)
	}
}

func TestLocalRMIThroughGPtr(t *testing.T) {
	rt := newRig(1, Options{})
	gp := rt.CreateObject(0, "Counter")
	var got int64
	rt.OnNode(0, func(th *threads.Thread) {
		rt.Call(th, gp, "add", []Arg{&I64{V: 3}}, nil)
		var ret I64
		rt.Call(th, gp, "get", nil, &ret)
		got = ret.V
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("counter = %d", got)
	}
	if n := rt.m.Node(0).Acct.Counter(machine.CntMsgShort) + rt.m.Node(0).Acct.Counter(machine.CntMsgBulk); n != 0 {
		t.Fatalf("local RMI sent %d messages", n)
	}
	if n := rt.m.Node(0).Acct.Counter(machine.CntLocalDeref); n != 2 {
		t.Fatalf("local derefs = %d", n)
	}
}

func TestNewObjOnRemoteCreation(t *testing.T) {
	rt := newRig(3, Options{})
	var got int64
	rt.OnNode(0, func(th *threads.Thread) {
		gp := rt.NewObjOn(th, 2, "Counter")
		if gp.NodeID() != 2 {
			t.Errorf("object placed on node %d", gp.NodeID())
		}
		rt.Call(th, gp, "add", []Arg{&I64{V: 11}}, nil)
		var ret I64
		rt.Call(th, gp, "get", nil, &ret)
		got = ret.V
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 11 {
		t.Fatalf("counter = %d", got)
	}
}

func TestGPF64ReadWrite(t *testing.T) {
	rt := newRig(2, Options{})
	x := []float64{1.25} // owned by node 1
	gp := NewGPF64(1, rt.AddF64([][]float64{nil, x}), 0)
	var got float64
	rt.OnNode(0, func(th *threads.Thread) {
		got = rt.ReadF64(th, gp)
		rt.WriteF64(th, gp, 9.75)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1.25 || x[0] != 9.75 {
		t.Fatalf("got=%v x=%v", got, x)
	}
	// GP accesses run on a fresh receiver thread (Table 4 GP row: Create=1).
	if n := rt.m.Node(1).Acct.Counter(machine.CntThreadCreate); n != 2 {
		t.Fatalf("receiver threads = %d, want 2", n)
	}
}

func TestGPF64LocalDerefCheap(t *testing.T) {
	rt := newRig(1, Options{})
	x := []float64{4.0}
	gp := NewGPF64(0, rt.AddF64([][]float64{x}), 0)
	rt.OnNode(0, func(th *threads.Thread) {
		if v := rt.ReadF64(th, gp); v != 4.0 {
			t.Errorf("local read %v", v)
		}
		rt.WriteF64(th, gp, 5.0)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if x[0] != 5.0 {
		t.Fatalf("x = %v", x[0])
	}
	cfg := machine.SP1997()
	// Two local derefs cost exactly the configured check, nothing more.
	if got := rt.m.Node(0).Acct.Get(machine.CatRuntime); got != 2*cfg.LocalGPDeref {
		t.Fatalf("local GP deref charged %v", got)
	}
}

func TestParJoinsAll(t *testing.T) {
	rt := newRig(1, Options{})
	var done [3]bool
	rt.OnNode(0, func(th *threads.Thread) {
		Par(th,
			func(t2 *threads.Thread) { t2.Compute(5 * time.Microsecond); done[0] = true },
			func(t2 *threads.Thread) { t2.Compute(1 * time.Microsecond); done[1] = true },
			func(t2 *threads.Thread) { done[2] = true },
		)
		if !done[0] || !done[1] || !done[2] {
			t.Error("par returned before blocks finished")
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestParForPrefetchOverlap(t *testing.T) {
	// CC++ prefetch: parfor of GP reads overlaps the wire latency but pays
	// thread costs per element.
	const n = 20
	rt := newRig(2, Options{})
	remote := make([]float64, n)
	for i := range remote {
		remote[i] = float64(i)
	}
	local := make([]float64, n)
	seg := rt.AddF64([][]float64{nil, remote})
	var elapsed time.Duration
	rt.OnNode(0, func(th *threads.Thread) {
		// Warm-up read to settle any cold costs.
		_ = rt.ReadF64(th, NewGPF64(1, seg, 0))
		start := th.Now()
		ParFor(th, n, func(t2 *threads.Thread, i int) {
			local[i] = rt.ReadF64(t2, NewGPF64(1, seg, i))
		})
		elapsed = time.Duration(th.Now() - start)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range local {
		if local[i] != remote[i] {
			t.Fatalf("local[%d] = %v", i, local[i])
		}
	}
	blocking := time.Duration(n) * 92 * time.Microsecond
	if elapsed >= blocking {
		t.Fatalf("parfor no faster than blocking: %v vs %v", elapsed, blocking)
	}
	// Paper: ~35 µs amortized per element (vs 12 µs for Split-C).
	per := elapsed / n
	if per < 15*time.Microsecond || per > 70*time.Microsecond {
		t.Fatalf("per-element CC++ prefetch %v outside plausible band", per)
	}
	if c := rt.m.Node(0).Acct.Counter(machine.CntThreadCreate); c < n {
		t.Fatalf("parfor created %d threads, want >= %d", c, n)
	}
}

func TestMPMDServerNodeWithoutProgram(t *testing.T) {
	// Node 1 runs no program at all — pure server kept alive by the
	// runtime's polling thread. This is the MPMD configuration SPMD systems
	// cannot express.
	rt := newRig(2, Options{})
	gp := rt.CreateObject(1, "Counter")
	var got int64
	rt.OnNode(0, func(th *threads.Thread) {
		for i := 0; i < 10; i++ {
			rt.Call(th, gp, "add", []Arg{&I64{V: 1}}, nil)
		}
		var ret I64
		rt.Call(th, gp, "get", nil, &ret)
		got = ret.V
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("server counter = %d", got)
	}
}

func TestDisableStubCacheAblation(t *testing.T) {
	run := func(opts Options) time.Duration {
		rt := newRig(2, opts)
		gp := rt.CreateObject(1, "Counter")
		var elapsed time.Duration
		rt.OnNode(0, func(th *threads.Thread) {
			rt.CallSimple(th, gp, "nop", nil, nil) // settle
			start := th.Now()
			for i := 0; i < 10; i++ {
				rt.CallSimple(th, gp, "nop", nil, nil)
			}
			elapsed = time.Duration(th.Now()-start) / 10
		})
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	withCache := run(Options{})
	without := run(Options{DisableStubCache: true})
	if without <= withCache {
		t.Fatalf("disabling the stub cache did not slow RMIs: %v vs %v", without, withCache)
	}
}

// TestStubCacheStatsWithCacheDisabled: with the stub cache disabled every
// remote call is a miss, and StubCacheStats says so, as the accounting does.
func TestStubCacheStatsWithCacheDisabled(t *testing.T) {
	const calls = 5
	rt := newRig(2, Options{DisableStubCache: true})
	gp := rt.CreateObject(1, "Counter")
	rt.OnNode(0, func(th *threads.Thread) {
		for i := 0; i < calls; i++ {
			rt.Call(th, gp, "nop", nil, nil)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	hits, misses := rt.StubCacheStats()
	c := rt.Machine().Snapshot().Counters
	if hits != 0 || misses != calls || c[machine.CntStubMiss] != misses || c[machine.CntRMICold] != misses {
		t.Errorf("%d calls with the cache disabled: StubCacheStats %d/%d, tham.stub.miss %d, core.rmi.cold %d; want 0/%d, %d, %d",
			calls, hits, misses, c[machine.CntStubMiss], c[machine.CntRMICold], calls, calls, calls)
	}
}

func TestDisablePersistentBuffersAblation(t *testing.T) {
	run := func(opts Options) (allocs int64) {
		rt := newRig(2, opts)
		gp := rt.CreateObject(1, "Counter")
		rt.OnNode(0, func(th *threads.Thread) {
			for i := 0; i < 5; i++ {
				rt.Call(th, gp, "add", []Arg{&I64{V: 1}}, nil)
			}
		})
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		a, _ := rt.BufStats()
		return a
	}
	withPersist := run(Options{})
	without := run(Options{DisablePersistentBuffers: true})
	if withPersist != 1 {
		t.Fatalf("persistent buffers: %d allocations, want 1 (cold only)", withPersist)
	}
	if without != 5 {
		t.Fatalf("without persistent buffers: %d allocations, want 5", without)
	}
}

func TestRMISyncOpCountsPlausible(t *testing.T) {
	// The paper reports 10-15 sync ops per null RMI round trip; verify the
	// runtime's thread-safety tax lands in that neighbourhood (both sides).
	rt := newRig(2, Options{})
	gp := rt.CreateObject(1, "Counter")
	var syncs int64
	rt.OnNode(0, func(th *threads.Thread) {
		rt.CallSimple(th, gp, "nop", nil, nil) // cold
		s0 := rt.m.Node(0).Acct.Counter(machine.CntSyncOp) + rt.m.Node(1).Acct.Counter(machine.CntSyncOp)
		rt.CallSimple(th, gp, "nop", nil, nil) // warm
		syncs = rt.m.Node(0).Acct.Counter(machine.CntSyncOp) + rt.m.Node(1).Acct.Counter(machine.CntSyncOp) - s0
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if syncs < 6 || syncs > 20 {
		t.Fatalf("sync ops per null RMI = %d, want 6..20", syncs)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() time.Duration {
		rt := newRig(4, Options{})
		gps := []GPtr{
			rt.CreateObject(1, "Counter"),
			rt.CreateObject(2, "Counter"),
			rt.CreateObject(3, "Counter"),
		}
		var end time.Duration
		rt.OnNode(0, func(th *threads.Thread) {
			for i := 0; i < 5; i++ {
				for _, gp := range gps {
					rt.Call(th, gp, "addAtomic", []Arg{&I64{V: 1}}, nil)
				}
			}
			end = time.Duration(th.Now())
		})
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

// TestLeftoverMessageIsAnError: a message that lands after the run has
// stopped its endpoints is never handled, and Run says so, naming the node,
// the sender and the handler. The run itself leaves none behind, so the test
// plants one: a simulator event a second past the end sends it.
func TestLeftoverMessageIsAnError(t *testing.T) {
	m := machine.New(machine.SP1997(), 2)
	rt := NewRuntime(m)
	h := rt.Handle("test.late", func(*threads.Thread, am.Msg) { t.Error("a message landed after the stop was handled") })
	rt.OnNode(0, func(*threads.Thread) {})
	m.Eng.After(time.Second, func() { m.Node(0).Send(1, 0, 48, &am.Msg{Src: 0, Dst: 1, H: h}) })
	want := "am: node 1 ended the run with a message from node 0 for test.late unhandled"
	if err := rt.Run(); err == nil || err.Error() != want {
		t.Fatalf("Run = %v, want %q", err, want)
	}
}
