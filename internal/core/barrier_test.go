package core

import (
	"testing"

	"repro/internal/am"
	"repro/internal/machine"
	"repro/internal/threads"
)

type sink struct{ recvd am.Count }

func sinkClass() *Class {
	return &Class{
		Name: "Sink",
		New:  func() any { return &sink{} },
		Methods: []*Method{{
			Name:     "deliver",
			Threaded: true,
			NewArgs:  func() []Arg { return []Arg{&F64Slice{}} },
			Fn: func(t *threads.Thread, self any, args []Arg, ret Arg) {
				self.(*sink).recvd.Advance(t, uint64(len(args[0].(*F64Slice).V)))
			},
		}},
	}
}

// Regression test: one-way threaded RMIs advance a WaitLocal count from a
// locally spawned thread, not from a message handler — the waiter must let
// ready threads run instead of waiting for a message only (deadlock found
// during EM3D bulk).
func TestBarrierWithOneWayDeliveries(t *testing.T) {
	rt := NewRuntimeOpts(machine.New(machine.SP1997(), 4), Options{})
	rt.RegisterClass(sinkClass())
	objs := make([]GPtr, 4)
	for i := range objs {
		objs[i] = rt.CreateObject(i, "Sink")
	}
	bar := rt.NewBarrier(0, 4)
	for i := 0; i < 4; i++ {
		me := i
		rt.OnNode(me, func(th *threads.Thread) {
			self := rt.Object(objs[me]).(*sink)
			expect := uint64(0)
			for k := 0; k < 3; k++ {
				for q := 0; q < 4; q++ {
					if q == me {
						continue
					}
					rt.CallOneWay(th, objs[q], "deliver", []Arg{&F64Slice{V: make([]float64, 5)}})
				}
				expect += 15
				rt.WaitLocal(th, &self.recvd, expect)
				bar.Arrive(th)
			}
		})
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}
