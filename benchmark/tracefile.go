package main

import (
	"bufio"
	"fmt"
	"os"
)

// maxTraceOps bounds the trace file: every span feeds the metrics, but only
// the first maxTraceOps ops of the window are written out (a 2 s live_null
// window is half a million ops, four spans each).
const maxTraceOps = 5000

// writeTrace writes the traced window as Chrome trace-event JSON (load it in
// ui.perfetto.dev or chrome://tracing). Each op is a span on the client
// track; its children carry the op's id and parent in args: the request leg,
// the handler (on the server's track, stamped in the handler body) and the
// reply leg, or for net_em3d the get / compute / barrier parts of each phase.
// Timestamps are µs since the driver started the repetition.
func writeTrace(path string, r *rep) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	first := true
	ev := func(name string, track int, op int, parent string, s, e float64) {
		if !first {
			w.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%d,"parent":%q}}`,
			name, track, s/1e3, (e-s)/1e3, op, parent)
	}
	w.WriteString("{\"traceEvents\":[\n")
	const client, server = 0, 1
	for i := 0; i < min(len(r.spans), maxTraceOps); i++ {
		sp := r.spans[i]
		s, e := float64(sp.s), float64(sp.e)
		ev(r.spec.Workload+".op", client, i, "", s, e)
		if 2*i+1 < len(r.handler) {
			in, out := r.handler[2*i], r.handler[2*i+1]
			ev("core.request_leg", client, i, "op", s, in)
			ev("core.handler", server, i, "op", in, out)
			ev("core.reply_leg", client, i, "op", out, e)
		}
		if i < len(r.steps) {
			st := r.steps[i]
			for p, name := range [2]string{"E", "H"} {
				ev("mpmd.dist_get."+name, client, i, "op", float64(st[3*p]), float64(st[3*p+1]))
				ev("mpmd.compute."+name, client, i, "op", float64(st[3*p+1]), float64(st[3*p+2]))
				ev("coll.barrier."+name, client, i, "op", float64(st[3*p+2]), float64(st[3*p+3]))
			}
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
