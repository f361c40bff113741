package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/threads"
	"repro/internal/transport/live"
)

// Misuse guards: the runtime turns API contract violations into panics with
// actionable messages rather than silent misbehaviour. Each test captures
// the panic inside the simulated node program.

func TestUnknownMethodPanics(t *testing.T) {
	rt := newRig(2, Options{})
	gp := rt.CreateObject(1, "Counter")
	var recovered any
	rt.OnNode(0, func(th *threads.Thread) {
		defer func() { recovered = recover() }()
		rt.Call(th, gp, "noSuchMethod", nil, nil)
	})
	_ = rt.Run()
	if recovered == nil {
		t.Error("unknown method did not panic")
	}
}

func TestNilPointerCallPanics(t *testing.T) {
	rt := newRig(2, Options{})
	var recovered any
	rt.OnNode(0, func(th *threads.Thread) {
		defer func() { recovered = recover() }()
		rt.Call(th, NilGPtr, "nop", nil, nil)
	})
	_ = rt.Run()
	if recovered == nil {
		t.Error("nil global pointer did not panic")
	}
}

func TestZeroGPtrPanics(t *testing.T) {
	rt := newRig(2, Options{})
	var recovered any
	rt.OnNode(0, func(th *threads.Thread) {
		defer func() { recovered = recover() }()
		var zero GPtr
		rt.Call(th, zero, "nop", nil, nil)
	})
	_ = rt.Run()
	if recovered == nil {
		t.Error("zero-value global pointer did not panic")
	}
}

func TestRetForVoidMethodPanics(t *testing.T) {
	rt := newRig(2, Options{})
	gp := rt.CreateObject(1, "Counter")
	var recovered any
	rt.OnNode(0, func(th *threads.Thread) {
		defer func() { recovered = recover() }()
		var ret I64
		rt.Call(th, gp, "nop", nil, &ret) // nop has no return value
	})
	_ = rt.Run()
	if recovered == nil {
		t.Error("return destination for void method did not panic")
	}
}

func TestOneWayWithReturnPanics(t *testing.T) {
	rt := newRig(2, Options{})
	gp := rt.CreateObject(1, "Counter")
	var recovered any
	rt.OnNode(0, func(th *threads.Thread) {
		defer func() { recovered = recover() }()
		rt.CallOneWay(th, gp, "get", nil) // get declares a return value
	})
	_ = rt.Run()
	if recovered == nil {
		t.Error("one-way call to value-returning method did not panic")
	}
}

func TestUnknownClassPanics(t *testing.T) {
	rt := newRig(1, Options{})
	defer func() {
		if recover() == nil {
			t.Error("unknown class did not panic")
		}
	}()
	rt.CreateObject(0, "NoSuchClass")
}

func TestDuplicateClassPanics(t *testing.T) {
	rt := newRig(1, Options{})
	defer func() {
		if recover() == nil {
			t.Error("duplicate class registration did not panic")
		}
	}()
	rt.RegisterClass(counterClass())
}

func TestDuplicateNodeProgramPanics(t *testing.T) {
	rt := newRig(1, Options{})
	rt.OnNode(0, func(*threads.Thread) {})
	defer func() {
		if recover() == nil {
			t.Error("duplicate node program did not panic")
		}
	}()
	rt.OnNode(0, func(*threads.Thread) {})
}

// Local async RMIs must return joinable futures: the same-node dispatch
// short-circuit used to discard its completion, making Future.Wait panic.
func TestLocalCallAsyncJoins(t *testing.T) {
	rt := newRig(2, Options{})
	gp := rt.CreateObject(0, "Counter") // same node as the caller
	var got int64
	rt.OnNode(0, func(th *threads.Thread) {
		// Inline (non-threaded) local future.
		f := rt.CallAsync(th, gp, "add", []Arg{&I64{V: 21}}, nil)
		f.Wait(th)
		// Threaded local future.
		f = rt.CallAsync(th, gp, "nopThreaded", nil, nil)
		f.Wait(th)
		if !f.Done() {
			t.Error("threaded local future not done after Wait")
		}
		var ret I64
		f = rt.CallAsync(th, gp, "get", nil, &ret)
		f.Wait(th)
		got = ret.V
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 21 {
		t.Fatalf("counter = %d, want 21", got)
	}
}

func TestRunWithoutProgramsErrors(t *testing.T) {
	rt := newRig(1, Options{})
	if err := rt.Run(); err == nil {
		t.Error("Run without node programs did not error")
	}
}

// TestWallClockRefusesModelledOptions: the three options that select a
// simulator row change no instruction a wall-clock machine runs, so
// NewRuntimeOpts refuses each there by name and with its reason; the
// simulator still takes them (they are Table 4 and ablation rows).
func TestWallClockRefusesModelledOptions(t *testing.T) {
	for _, row := range []struct {
		name, why string
		opts      Options
	}{
		{"SpinSenders", "one wait", Options{SpinSenders: true}},
		{"InterruptDriven", "poll-on-send", Options{InterruptDriven: true}},
		{"DisablePersistentBuffers", "only counters", Options{DisablePersistentBuffers: true}},
	} {
		t.Run(row.name, func(t *testing.T) {
			m := machine.NewWithBackend(machine.SP1997(), 2, live.New(2, live.Options{Watchdog: time.Minute}))
			func() {
				defer func() {
					got := fmt.Sprint(recover())
					if !strings.Contains(got, "Options."+row.name+" on a wall-clock machine") || !strings.Contains(got, row.why) {
						t.Errorf("NewRuntimeOpts on live panicked with %q, want Options.%s refused with its reason (%q)", got, row.name, row.why)
					}
				}()
				NewRuntimeOpts(m, row.opts)
			}()
			NewRuntimeOpts(machine.New(machine.SP1997(), 2), row.opts)
		})
	}
}

// TestBlockingMethodInInterruptPanics: a non-threaded method that blocks —
// here, on an RMI of its own — run in node 1's interrupt context on a live
// machine panics naming that context, and the panic reaches the caller,
// whose send ran the handler. (On the poller thread it could only stall the
// node.) The warm-up calls go on until one has found node 1 idle, so the
// next one is sure to be handled on arrival. Node 1's CPU is left held, so
// the panic aborts the run: Run returns at once, naming it, instead of at the
// watchdog.
func TestBlockingMethodInInterruptPanics(t *testing.T) {
	m := machine.NewWithBackend(machine.SP1997(), 2, live.New(2, live.Options{Watchdog: 5 * time.Second}))
	rt := NewRuntime(m)
	rt.RegisterClass(counterClass())
	gp0 := rt.CreateObject(0, "Counter")
	rt.RegisterClass(&Class{
		Name: "Blocker",
		New:  func() any { return nil },
		Methods: []*Method{
			{Name: "nop", Fn: func(*threads.Thread, any, []Arg, Arg) {}},
			{Name: "callBack", Fn: func(t *threads.Thread, _ any, _ []Arg, _ Arg) {
				rt.Call(t, gp0, "nop", nil, nil)
			}},
		},
	})
	gp1 := rt.CreateObject(1, "Blocker")
	acct1 := m.Node(1).Acct
	recovered := make(chan any, 1)
	var called time.Time // written before the panic that ends the run
	rt.OnNode(0, func(th *threads.Thread) {
		for start := time.Now(); acct1.Counter(machine.CntInterrupts) == 0 && time.Since(start) < 5*time.Second; {
			rt.Call(th, gp1, "nop", nil, nil)
		}
		defer func() { recovered <- recover() }()
		called = time.Now()
		rt.Call(th, gp1, "callBack", nil, nil)
	})
	err := rt.Run()
	took := time.Since(called)
	const want = "Block in node 1's interrupt context"
	if msg := fmt.Sprint(<-recovered); !strings.Contains(msg, want) {
		t.Fatalf("a blocking non-threaded method run on arrival panicked with %q, want a panic naming node 1's interrupt context", msg)
	}
	if !strings.Contains(fmt.Sprint(err), want) || took > 100*time.Millisecond {
		t.Fatalf("Run returned %v %v after the call, want an error naming node 1's interrupt context within 100ms", err, took)
	}
}
