package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"time"

	"repro/mpmd"
)

// workload describes one benchmark workload: the machine it runs on and the
// program every process installs. Every workload is a closed loop with one
// client node (node 0, in the parent process): with two clients per process
// on the 2-CPU box the numbers measured the neighbour, not the program.
type workload struct {
	nodes, shards int
	// group is how many consecutive spans form one latency sample. live_bulk
	// alternates two kinds of RMI, so its sample is the put+get pair (halved):
	// the median of a two-mode mix would flip between the modes.
	group int
	// warmup is how many ops run before the window (a multiple of group):
	// stub resolution, buffer pools, a re-exec'd worker still settling.
	warmup int64
	// settle is how long a repetition keeps issuing ops, unmeasured, between
	// set-up and its window. For the first 0.1 to 0.7 s of a fresh netlive
	// machine every net_null op costs 40 % more (two spinning processes that
	// start on one CPU, until the kernel's load balancer moves one away, would
	// look like that); how much of a window that phase took was most of the
	// difference between two repetitions.
	settle time.Duration
	setup  func(r *rep, rt *mpmd.Runtime) error
}

var workloads = map[string]*workload{
	"live_null":  {nodes: 2, shards: 1, group: 1, warmup: 2000, setup: rmiSetup((*rep).nullClient)},
	"live_bulk":  {nodes: 2, shards: 1, group: 2, warmup: 2000, setup: rmiSetup((*rep).bulkClient)},
	"net_null":   {nodes: 2, shards: 2, group: 1, warmup: 2000, settle: time.Second, setup: rmiSetup((*rep).nullClient)},
	"net_stream": {nodes: 2, shards: 2, group: 1, warmup: 2000, settle: time.Second, setup: rmiSetup((*rep).streamClient)},
	"net_em3d":   {nodes: 4, shards: 2, group: 1, warmup: 20, settle: time.Second, setup: em3dSetup},
}

// rmiSetup installs the Server object on node 1 and the given client program
// on node 0. It runs identically in every process of the machine.
func rmiSetup(client func(*rep, *mpmd.Thread, mpmd.Ref[Server], []byte)) func(*rep, *mpmd.Runtime) error {
	return func(r *rep, rt *mpmd.Runtime) error {
		if err := mpmd.RegisterClass[Server](rt); err != nil {
			return err
		}
		srv, err := mpmd.NewObject[Server](rt, 1)
		if err != nil {
			return err
		}
		ref := refPattern(r.spec.Seed)
		rt.Object(srv.GPtr()).(*Server).ref = ref
		rt.OnNode(0, func(t *mpmd.Thread) { client(r, t, srv, ref) })
		return nil
	}
}

// closedLoop issues rmi back to back, the next only after the previous one
// returned: first the warm-up, then to settle, then for the window. rmi
// reports whether its result was correct.
func (r *rep) closedLoop(t *mpmd.Thread, srv mpmd.Ref[Server], rmi func(i int64) bool) {
	i := int64(0)
	for ; i < r.spec.Warmup; i++ {
		if !rmi(i) {
			r.res.Failed++
		}
	}
	for settled := r.endSetup(); r.now() < settled || i%r.group != 0; i++ {
		if !rmi(i) {
			r.res.Failed++
		}
	}
	warm := i
	r.startTrace(t, srv)
	r.beginWindow()
	start := r.now()
	prev := start
	for prev-start < int64(r.spec.Window) {
		ok := rmi(i)
		n := r.now()
		r.record(prev, n)
		if !ok {
			r.res.Failed++
		}
		prev = n
		i++
	}
	r.endWindow(start, prev, i-warm)
	r.res.Issued = i
	r.collect(t, srv)
}

// startTrace switches the server's handler stamps on for a traced window.
func (r *rep) startTrace(t *mpmd.Thread, srv mpmd.Ref[Server]) {
	if !r.spec.Traced {
		return
	}
	if _, err := mpmd.Invoke[int64, mpmd.Void](t, srv, "StartTrace", r.spec.T0); err != nil {
		r.res.Failed++
	}
}

// collect fetches what the server saw: its verification failures, and the
// handler stamps of a traced window.
func (r *rep) collect(t *mpmd.Thread, srv mpmd.Ref[Server]) {
	bad, err := mpmd.Invoke[mpmd.Void, int64](t, srv, "Bad", mpmd.Void{})
	if err != nil {
		bad = 1
	}
	r.res.Failed += bad
	if !r.spec.Traced {
		return
	}
	for {
		chunk, err := mpmd.Invoke[int64, []float64](t, srv, "Stamps", int64(len(r.handler)))
		if err != nil || len(chunk) == 0 {
			return
		}
		r.handler = append(r.handler, chunk...)
	}
}

// nullClient is live_null and net_null: a blocking 0-word typed RMI.
func (r *rep) nullClient(t *mpmd.Thread, srv mpmd.Ref[Server], _ []byte) {
	r.closedLoop(t, srv, func(int64) bool {
		_, err := mpmd.Invoke[mpmd.Void, mpmd.Void](t, srv, "Null", mpmd.Void{})
		return err == nil
	})
}

// bulkClient is live_bulk: Put(16 KiB) and Get()→16 KiB alternate, so a gain
// on the argument path that costs the return path shows.
func (r *rep) bulkClient(t *mpmd.Thread, srv mpmd.Ref[Server], ref []byte) {
	buf := append([]byte(nil), ref[:bulkBytes]...)
	r.closedLoop(t, srv, func(i int64) bool {
		seq := uint64(i / 2)
		if i%2 == 0 {
			binary.LittleEndian.PutUint64(buf, seq)
			_, err := mpmd.Invoke[[]byte, mpmd.Void](t, srv, "Put", buf)
			return err == nil
		}
		got, err := mpmd.Invoke[mpmd.Void, []byte](t, srv, "Get", mpmd.Void{})
		return err == nil && len(got) == bulkBytes &&
			binary.LittleEndian.Uint64(got) == seq && bytes.Equal(got[8:], ref[8:bulkBytes])
	})
}

// streamDepth is net_stream's sliding window of outstanding InvokeAsyncs.
const streamDepth = 16

// streamClient is net_stream: one op is one completed InvokeAsync out of
// streamDepth outstanding; every 4th is followed by a one-way RMI. Sizes come
// in seeded shuffles of a balanced block, so every seed sends the same bytes
// in a different order.
func (r *rep) streamClient(t *mpmd.Thread, srv mpmd.Ref[Server], ref []byte) {
	sizes := make([]int, 64)
	for i := range sizes {
		sizes[i] = streamSizes[i%len(streamSizes)]
	}
	rng := rand.New(rand.NewSource(r.spec.Seed))

	type inflight struct {
		f      *mpmd.Future[int64]
		issued int64
		want   int64
	}
	var ring [streamDepth]inflight
	var seq, calls, head, pending int64

	issue := func() bool {
		if calls%int64(len(sizes)) == 0 {
			rng.Shuffle(len(sizes), func(a, b int) { sizes[a], sizes[b] = sizes[b], sizes[a] })
		}
		n := sizes[calls%int64(len(sizes))]
		calls++
		now := r.now()
		f, err := mpmd.InvokeAsync[StreamMsg, int64](t, srv, "Push", StreamMsg{Seq: seq, Data: ref[:n]})
		if err != nil {
			return false
		}
		ring[(head+pending)%streamDepth] = inflight{f, now, streamAck(seq, n)}
		pending++
		seq++
		if calls%4 == 0 {
			if mpmd.InvokeOneWay(t, srv, "Note", seq) != nil {
				return false
			}
			seq++
		}
		return true
	}
	// complete waits for the oldest outstanding op and returns when it was
	// seen done; replies arrive in issue order (per-sender FIFO both ways).
	complete := func(timed bool) int64 {
		op := ring[head%streamDepth]
		ok := op.f.Wait(t) == op.want
		now := r.now()
		if timed {
			r.record(op.issued, now)
		}
		if !ok {
			r.res.Failed++
		}
		head++
		pending--
		return now
	}
	// run keeps the window full until stop says so, then drains it, so the
	// server's i-th handler stamp belongs to the i-th op issued.
	run := func(timed bool, stop func(done, now int64) bool) (done, last int64) {
		last = r.now()
		for !stop(done, last) {
			if pending == streamDepth {
				last = complete(timed)
				done++
			}
			if !issue() {
				r.res.Failed++
				break
			}
		}
		for pending > 0 {
			complete(false)
		}
		return done, last
	}

	run(false, func(done, _ int64) bool { return done >= r.spec.Warmup })
	settled := r.endSetup()
	run(false, func(_, now int64) bool { return now >= settled })
	r.startTrace(t, srv)
	r.beginWindow()
	start := r.now()
	ops, end := run(true, func(_, now int64) bool { return now-start >= int64(r.spec.Window) })
	r.endWindow(start, end, ops)
	r.res.Issued = calls
	r.collect(t, srv)
}
