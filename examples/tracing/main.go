// Tracing: watch where the microseconds of an RMI go.
//
// Runs a short CC++ exchange — a blocking RMI burst from node 0 to a Worker
// processor object on node 1 — with the machine's tracer attached, then
// prints the chronological event listing of the first round trip, per-node
// utilization strips, and the event summary. The listing makes the paper's
// §3 cost anatomy visible event by event: marshal, send, poll, spawn,
// dispatch, reply, complete.
//
// The Worker is an ordinary Go struct on the typed v2 API (RegisterClass
// derives the method table; RMIOptions flags Work threaded). On the default
// sim backend the timestamps are calibrated virtual microseconds; with
// -backend=live the identical program traces real goroutines against the
// wall clock — their sends, receives, spawns and switches; a wall-clock
// machine charges nothing, so its utilization strips stay empty.
//
// Run with: go run ./examples/tracing [-backend=sim|live]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/trace"
	"repro/mpmd"
)

// Worker burns a fixed slice of CPU per invocation, so the trace shows a
// clean compute phase between dispatch and reply.
type Worker struct{}

// Work is the traced RMI: one word of argument, 30 µs of modelled compute.
func (w *Worker) Work(t *mpmd.Thread, i int64) {
	t.Compute(30 * time.Microsecond)
}

// RMIOptions marks Work threaded — the paper's standard dispatch path,
// whose spawn event the listing shows.
func (w *Worker) RMIOptions() map[string]mpmd.MethodOpts {
	return map[string]mpmd.MethodOpts{"Work": {Threaded: true}}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func main() {
	backend := flag.String("backend", "sim", "execution backend: sim (calibrated virtual time) or live (real goroutines, wall-clock)")
	flag.Parse()

	var m *mpmd.Machine
	switch *backend {
	case "sim":
		m = mpmd.NewMachine(mpmd.SPConfig(), 2)
	case "live":
		m = mpmd.NewLiveMachine(mpmd.SPConfig(), 2)
	default:
		log.Fatalf("unknown backend %q (want sim or live)", *backend)
	}
	tl := trace.New(0)
	trace.Attach(m, tl)

	rt := mpmd.NewRuntime(m)
	must(mpmd.RegisterClass[Worker](rt))
	w, err := mpmd.NewObject[Worker](rt, 1)
	must(err)

	var end time.Duration
	rt.OnNode(0, func(t *mpmd.Thread) {
		for i := 0; i < 8; i++ {
			_, err := mpmd.Invoke[int64, mpmd.Void](t, w, "Work", int64(i))
			must(err)
		}
		end = time.Duration(t.Now())
	})
	must(rt.Run())

	fmt.Printf("first events of the run on the %s backend (cold RMI: name resolution, buffers, dispatch):\n", *backend)
	fmt.Print(tl.Listing(28))
	fmt.Println()
	fmt.Print(tl.Utilization(2, 0, end, 72))
	fmt.Println()
	fmt.Print(tl.Summary(2))
}
