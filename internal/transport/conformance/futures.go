package conformance

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/threads"
	"repro/mpmd"
)

// Futures conformance: a split-phase call's future is its own record. Many of
// them in flight on one node at once — typed RMIs to remote and local objects,
// threaded and not, with string and []byte results, between one-way RMIs and
// Dist reads — each join yields exactly its own call's result, whatever order
// they are joined in, and a joined future keeps its result while later calls
// reuse the records synchronous calls are pooled in.

// futSrv is the case's processor object: string and []byte results from
// threaded and non-threaded methods, and a one-way note counter.
type futSrv struct{ notes int64 }

func futResult(node int, k int64) string { return fmt.Sprintf("n%d/k%d", node, k) }

func (s *futSrv) Str(t *mpmd.Thread, k int64) string  { return futResult(t.Node().ID, k) }
func (s *futSrv) StrT(t *mpmd.Thread, k int64) string { return futResult(t.Node().ID, k) }
func (s *futSrv) Blob(t *mpmd.Thread, k int64) []byte { return []byte(futResult(t.Node().ID, k)) }
func (s *futSrv) BlobT(t *mpmd.Thread, k int64) []byte {
	return []byte(futResult(t.Node().ID, k))
}
func (s *futSrv) Note(t *mpmd.Thread, k int64) { s.notes++ }
func (s *futSrv) Notes(t *mpmd.Thread) int64   { return s.notes }
func (s *futSrv) RMIOptions() map[string]mpmd.MethodOpts {
	return map[string]mpmd.MethodOpts{"StrT": {Threaded: true}, "BlobT": {Threaded: true}}
}

// futCall is one split-phase operation of the case and what it must yield.
type futCall struct {
	what string
	want string
	wait func(*mpmd.Thread) string
	done func() bool
}

func futuresCase(t *testing.T, f ShardedFactory) {
	const n = 4
	// Node 1 (in-shard on the sharded configurations) and node 3 (across
	// the shards) hold the remote objects, node 2 the remote Dist elements.
	targets := []int{0, 1, 3}
	ms := f(machine.SP1997(), n)
	rts := make([]*core.Runtime, len(ms))
	var release atomic.Bool
	var calls [2][]futCall
	notes := make([]int64, len(targets))
	for k, m := range ms {
		rt := core.NewRuntime(m)
		rts[k] = rt
		if err := mpmd.RegisterClass[futSrv](rt); err != nil {
			t.Fatal(err)
		}
		refs := make([]mpmd.Ref[futSrv], len(targets))
		for i, node := range targets {
			var err error
			if refs[i], err = mpmd.NewObject[futSrv](rt, node); err != nil {
				t.Fatal(err)
			}
		}
		tm, err := mpmd.WorldTeam(rt)
		if err != nil {
			t.Fatal(err)
		}
		d, err := mpmd.NewDist[int64](tm, 2*n, mpmd.LayoutBlock)
		if err != nil {
			t.Fatal(err)
		}
		for node := 0; node < n; node++ {
			rt.OnNode(node, func(th *mpmd.Thread) {
				if err := d.ForEachLocal(th, func(i int, v *int64) { *v = futElem(i) }); err != nil {
					t.Error(err)
				}
				if err := tm.Barrier(th); err != nil {
					t.Error(err)
				}
				switch {
				case node == 0:
					futuresMain(t, th, refs, d, &release, &calls, notes)
				case node != 2 && rt.Machine().Eng == nil:
					// On the wall-clock backends the nodes of the remote
					// objects keep their CPU until node 0 has issued every
					// call, so most replies land after their future has
					// been looked at and many calls are in flight at once
					// (one that comes while its node is still idle, in the
					// barrier, is handled at once). The simulator needs no
					// hold: a reply is a round trip of virtual time away.
					for !release.Load() {
						time.Sleep(50 * time.Microsecond)
					}
				}
			})
		}
	}
	if err := collRun(rts); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for c, cs := range calls {
		if len(cs) == 0 {
			t.Errorf("thread %d of node 0 issued no calls", c)
		}
	}
}

func futElem(i int) int64 { return int64(1000 + i) }

// futuresMain is node 0's program: two threads each issue their calls, and
// once both have, the held nodes go and each thread joins its futures in
// reverse order. Then synchronous calls, many at once, take records from the
// pools, and every future is looked at again.
func futuresMain(t *testing.T, th *mpmd.Thread, refs []mpmd.Ref[futSrv], d *mpmd.Dist[int64], release *atomic.Bool, calls *[2][]futCall, notes []int64) {
	var issued, joined threads.WaitGroup
	issued.Add(2)
	joined.Add(2)
	thread := func(th *mpmd.Thread, c int) {
		calls[c] = futuresIssue(t, th, c, refs, d, notes)
		issued.Done(th)
		if c == 0 {
			issued.Wait(th)
			release.Store(true)
		}
		for i := len(calls[c]) - 1; i >= 0; i-- {
			fc := &calls[c][i]
			if got := fc.wait(th); got != fc.want {
				t.Errorf("thread %d: %s yielded %q, want %q", c, fc.what, got, fc.want)
			}
			if !fc.done() {
				t.Errorf("thread %d: %s is not done after its Wait", c, fc.what)
			}
		}
		joined.Done(th)
	}
	th.Spawn("second-caller", func(t2 *threads.Thread) { thread(t2, 1) })
	thread(th, 0)
	joined.Wait(th)

	const syncCalls = 16
	var synced threads.WaitGroup
	synced.Add(syncCalls)
	for s := 0; s < syncCalls; s++ {
		r, k := refs[1+s%2], int64(-s)
		th.Spawn("sync-caller", func(t2 *threads.Thread) {
			if got, err := mpmd.Invoke[int64, string](t2, r, "Str", k); err != nil || got != futResult(r.NodeID(), k) {
				t.Errorf("synchronous Str(%d) to node %d = %q, %v", k, r.NodeID(), got, err)
			}
			synced.Done(t2)
		})
	}
	synced.Wait(th)
	for i, r := range refs {
		if got, err := mpmd.Invoke[mpmd.Void, int64](th, r, "Notes", mpmd.Void{}); err != nil || got != notes[i] {
			t.Errorf("node %d's object counted %d one-way notes (%v), want %d", r.NodeID(), got, err, notes[i])
		}
	}
	for c, cs := range calls {
		for i := range cs {
			fc := &cs[i]
			if !fc.done() {
				t.Errorf("thread %d: %s is no longer done after later calls", c, fc.what)
				continue
			}
			if got := fc.wait(th); got != fc.want {
				t.Errorf("thread %d: %s yields %q on a second Wait, want %q", c, fc.what, got, fc.want)
			}
		}
	}
}

// futuresIssue issues thread c's calls — 64 InvokeAsync round-robin over the
// objects and the four result methods, a one-way after every third and a
// Dist read after every eighth — and checks each call's Done as it returns
// where the backend fixes it.
func futuresIssue(t *testing.T, th *mpmd.Thread, c int, refs []mpmd.Ref[futSrv], d *mpmd.Dist[int64], notes []int64) []futCall {
	me, modelled := th.Node().ID, th.Node().M.Eng != nil
	var cs []futCall
	for i := 0; i < 64; i++ {
		k := int64(1000*c + i)
		ti := i % len(refs)
		r := refs[ti]
		method := []string{"Str", "StrT", "Blob", "BlobT"}[i/len(refs)%4]
		want := futResult(r.NodeID(), k)
		fc := futCall{what: fmt.Sprintf("%s(%d) to node %d", method, k, r.NodeID()), want: want}
		if method == "Str" || method == "StrT" {
			fu, err := mpmd.InvokeAsync[int64, string](th, r, method, k)
			if err != nil {
				t.Error(err)
				return cs
			}
			fc.wait, fc.done = fu.Wait, fu.Done
		} else {
			fu, err := mpmd.InvokeAsync[int64, []byte](th, r, method, k)
			if err != nil {
				t.Error(err)
				return cs
			}
			fc.wait = func(th *mpmd.Thread) string { return string(fu.Wait(th)) }
			fc.done = fu.Done
		}
		// A local non-threaded method has run before InvokeAsync returns.
		// On the simulator every other reply is a round trip of virtual time
		// away. On a wall-clock machine a call to an idle node may already
		// have been handled, in that node's interrupt context, and its reply
		// by the send's own poll: there Done may read either way, and Wait
		// is what must be right.
		if local := r.NodeID() == me && (method == "Str" || method == "Blob"); fc.done() != local && (local || modelled) {
			t.Errorf("thread %d: %s reports Done %v as it is issued, want %v", c, fc.what, !local, local)
		}
		cs = append(cs, fc)
		if i%3 == 2 {
			if err := mpmd.InvokeOneWay(th, r, "Note", k); err != nil {
				t.Error(err)
				return cs
			}
			notes[ti]++
		}
		if i%8 == 7 {
			// Node 0's own elements and node 2's, in turn.
			e := []int{0, 4, 1, 5}[i/8%4]
			fu, err := d.GetAsync(th, e)
			if err != nil {
				t.Error(err)
				return cs
			}
			cs = append(cs, futCall{
				what: fmt.Sprintf("Dist.GetAsync(%d)", e),
				want: fmt.Sprint(futElem(e)),
				wait: func(th *mpmd.Thread) string { return fmt.Sprint(fu.Wait(th)) },
				done: fu.Done,
			})
		}
	}
	return cs
}
