package conformance

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/threads"
)

// Collective conformance: the team collectives (internal/coll) are part of
// the contract the upper layers rely on, and like the rest of the suite
// they must behave identically on every backend — full participation,
// per-member result agreement across repeated operations (ordering), and
// isolation between sub-teams created by Split. Results and one count, never
// timings: a collective sends active messages, never an RMI, so no member's
// node counts one.

func runCollectives(t *testing.T, f ShardedFactory) {
	t.Run("Participation", func(t *testing.T) { collParticipation(t, f) })
	t.Run("Ordering", func(t *testing.T) { collOrdering(t, f) })
	t.Run("SubTeamIsolation", func(t *testing.T) { collSubTeamIsolation(t, f) })
}

// collRig builds a CC++ runtime with the collective engine over each of the
// factory's co-resident machines.
func collRig(f ShardedFactory, n int) ([]*core.Runtime, []*coll.Team) {
	ms := f(machine.SP1997(), n)
	rts := make([]*core.Runtime, len(ms))
	tms := make([]*coll.Team, len(ms))
	for k, m := range ms {
		rts[k] = core.NewRuntime(m)
		tms[k] = coll.For(rts[k]).World()
	}
	return rts, tms
}

// collOnNode installs body as node i's program on every runtime — the SPMD
// model: each runtime executes only its own shard's nodes — handing the body
// that runtime's world team, and requires that the node sent no RMI while
// the body ran.
func collOnNode(t *testing.T, rts []*core.Runtime, tms []*coll.Team, i int, body func(th *threads.Thread, tm *coll.Team)) {
	for k, rt := range rts {
		tm := tms[k]
		rt.OnNode(i, func(th *threads.Thread) {
			s0 := th.Node().Acct.Snapshot()
			body(th, tm)
			if rmis := th.Node().Acct.Delta(s0).Counters[machine.CntRMI]; rmis != 0 {
				t.Errorf("node %d: %d RMIs under collectives, want 0 (every collective message is an active message)", i, rmis)
			}
		})
	}
}

// collRun runs every runtime concurrently and joins their errors.
func collRun(rts []*core.Runtime) error {
	if len(rts) == 1 {
		return rts[0].Run()
	}
	errs := make([]error, len(rts))
	var wg sync.WaitGroup
	for k, rt := range rts {
		wg.Add(1)
		go func(k int, rt *core.Runtime) {
			defer wg.Done()
			errs[k] = rt.Run()
		}(k, rt)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// collParticipation: an AllReduce completes only once every member has
// contributed, and every member sees the full combination — including a
// deliberately late member.
func collParticipation(t *testing.T, f ShardedFactory) {
	const n = 4
	rts, tms := collRig(f, n)
	got := make([]float64, n)
	var lateContributed atomic.Bool
	for i := 0; i < n; i++ {
		i := i
		collOnNode(t, rts, tms, i, func(th *threads.Thread, tm *coll.Team) {
			if i == n-1 {
				// The late member: everyone else is already blocked in the
				// collective when this contribution enters.
				th.Compute(200 * time.Microsecond)
				lateContributed.Store(true)
			}
			v := coll.DecF64(tm.AllReduce(th, coll.EncF64(float64(i+1)), coll.SumF64))
			if i != n-1 && !lateContributed.Load() {
				t.Errorf("member %d finished AllReduce before member %d contributed", i, n-1)
			}
			got[i] = v
		})
	}
	if err := collRun(rts); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range got {
		if v != n*(n+1)/2 {
			t.Errorf("member %d got %v, want %v", i, v, n*(n+1)/2)
		}
	}
}

// collOrdering: a pipelined sequence of different collectives produces the
// per-round results on every member, in order — no cross-operation
// contamination even when members enter successive operations at different
// times.
func collOrdering(t *testing.T, f ShardedFactory) {
	const (
		n      = 3
		rounds = 8
	)
	rts, tms := collRig(f, n)
	results := make([][]float64, n)
	for i := 0; i < n; i++ {
		i := i
		collOnNode(t, rts, tms, i, func(th *threads.Thread, tm *coll.Team) {
			for r := 0; r < rounds; r++ {
				s := coll.DecF64(tm.AllReduce(th, coll.EncF64(float64(r*10+i)), coll.SumF64))
				b := coll.DecF64(tm.Bcast(th, r%n, coll.EncF64(s+float64(r))))
				results[i] = append(results[i], s, b)
			}
		})
	}
	if err := collRun(rts); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for r := 0; r < rounds; r++ {
		wantSum := float64(r*10*n + 0 + 1 + 2)
		wantB := wantSum + float64(r)
		for i := 0; i < n; i++ {
			if results[i][2*r] != wantSum || results[i][2*r+1] != wantB {
				t.Errorf("member %d round %d: got %v/%v, want %v/%v",
					i, r, results[i][2*r], results[i][2*r+1], wantSum, wantB)
			}
		}
	}
}

// collSubTeamIsolation: collectives on concurrently live teams — two
// overlapping splits of the world and a split of a subteam — interleave
// without observing each other's traffic, every member of a team agrees on
// its id, node 0 leads two of the teams under distinct ids, and the parent
// team still works afterwards.
func collSubTeamIsolation(t *testing.T, f ShardedFactory) {
	const n = 5
	rts, tms := collRig(f, n)
	type view struct {
		ids  [3]uint64
		sums [3]float64
	}
	views := make([]view, n)
	worldSums := make([]float64, n)
	for i := 0; i < n; i++ {
		i := i
		collOnNode(t, rts, tms, i, func(th *threads.Thread, tm *coll.Team) {
			// parity: {0,2,4} led by 0, {1,3} led by 1. half: {0,1,2} led by
			// 0, {3,4} led by 3. pair splits each parity team by rank/2 with
			// keys reversed: {0,2} led by 2, {4}, {1,3} led by 3.
			parity := tm.Split(th, i%2, i)
			half := tm.Split(th, i/3, i)
			pr := parity.Rank(th)
			pair := parity.Split(th, pr/2, -pr)
			teams := [3]*coll.Team{parity, half, pair}
			// Different iteration counts per team, interleaved: any
			// cross-team collision of message words would surface.
			iters := [3]int{3 + 2*(i%2), 4, 2}
			var v view
			for k := 0; k < 5; k++ {
				for j, sub := range teams {
					if k < iters[j] {
						scale := [3]float64{1, 100, 1000}[j]
						v.sums[j] = coll.DecF64(sub.AllReduce(th, coll.EncF64(scale*float64(i+1)), coll.SumF64))
					}
				}
			}
			for j, sub := range teams {
				v.ids[j] = sub.ID()
			}
			views[i] = v
			worldSums[i] = coll.DecF64(tm.AllReduce(th, coll.EncF64(1), coll.SumF64))
		})
	}
	if err := collRun(rts); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The members of each team, by node, and the sum of its contributions.
	members := [3][][]int{
		{{0, 2, 4}, {1, 3}},
		{{0, 1, 2}, {3, 4}},
		{{0, 2}, {4}, {1, 3}},
	}
	named := map[uint64]bool{}
	for j, teams := range members {
		for _, nodes := range teams {
			named[views[nodes[0]].ids[j]] = true
			want := 0.0
			for _, i := range nodes {
				want += [3]float64{1, 100, 1000}[j] * float64(i+1)
			}
			for _, i := range nodes {
				if views[i].sums[j] != want {
					t.Errorf("team %d of node %d: sum %v, want %v", j, i, views[i].sums[j], want)
				}
				if views[i].ids[j] != views[nodes[0]].ids[j] {
					t.Errorf("team %d: node %d names it %#x, node %d %#x", j, i, views[i].ids[j], nodes[0], views[nodes[0]].ids[j])
				}
			}
		}
	}
	if len(named) != 7 || named[0] {
		t.Errorf("seven live subteams carry %d distinct ids %v; want seven, none the world's 0", len(named), named)
	}
	if a, b := views[0].ids[0], views[0].ids[1]; a>>32 != 0 || b>>32 != 0 || a == b {
		t.Errorf("node 0 leads two teams, named %#x and %#x: want node 0 in both high halves and two ids", a, b)
	}
	if lead := views[1].ids[2] >> 32; lead != 3 {
		t.Errorf("team {1,3} of the nested split is led by node %d, want 3 (keys reversed)", lead)
	}
	for i := 0; i < n; i++ {
		if worldSums[i] != n {
			t.Errorf("member %d: world sum %v after split, want %v", i, worldSums[i], float64(n))
		}
	}
}
