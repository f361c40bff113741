package coll

import (
	"encoding/binary"
	"fmt"
	"math"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/am"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/threads"
	"repro/internal/transport/live"
)

// runTeam runs prog as every member of the world team over a fresh n-node
// machine and returns machine + runtime for inspection.
func runTeam(t *testing.T, n int, liveBE bool, prog func(tm *Team, th *threads.Thread, me int)) (*machine.Machine, *core.Runtime) {
	t.Helper()
	var m *machine.Machine
	if liveBE {
		m = machine.NewWithBackend(machine.SP1997(), n, live.New(n, live.Options{Watchdog: 30 * time.Second}))
	} else {
		m = machine.New(machine.SP1997(), n)
	}
	rt := core.NewRuntime(m)
	tm := For(rt).World()
	for i := 0; i < n; i++ {
		i := i
		rt.OnNode(i, func(th *threads.Thread) { prog(tm, th, i) })
	}
	if err := rt.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return m, rt
}

func backends(t *testing.T, fn func(t *testing.T, liveBE bool)) {
	t.Run("sim", func(t *testing.T) { fn(t, false) })
	t.Run("live", func(t *testing.T) { fn(t, true) })
}

func TestBarrierOrdering(t *testing.T) {
	backends(t, func(t *testing.T, liveBE bool) {
		// Each member bumps a shared per-round counter after the barrier; a
		// member racing ahead of the barrier would observe a short count.
		const n, rounds = 5, 4
		counts := make([]atomic.Int32, rounds)
		bad := make(chan string, n*rounds)
		runTeam(t, n, liveBE, func(tm *Team, th *threads.Thread, me int) {
			for r := 0; r < rounds; r++ {
				tm.Barrier(th)
				// After barrier k, every member must have finished round k-1.
				if r > 0 && counts[r-1].Load() != n {
					bad <- fmt.Sprintf("member %d entered round %d with %d/%d arrivals", me, r, counts[r-1].Load(), n)
				}
				tm.Barrier(th)
				counts[r].Add(1)
			}
		})
		close(bad)
		for msg := range bad {
			t.Error(msg)
		}
		for r := range counts {
			if c := counts[r].Load(); c != n {
				t.Errorf("round %d: %d/%d members counted", r, c, n)
			}
		}
	})
}

func TestBcast(t *testing.T) {
	backends(t, func(t *testing.T, liveBE bool) {
		for _, n := range []int{1, 2, 3, 5, 8} {
			got := make([]float64, n)
			runTeam(t, n, liveBE, func(tm *Team, th *threads.Thread, me int) {
				root := n - 1
				var data []byte
				if me == root {
					data = EncF64(42.5)
				}
				got[me] = DecF64(tm.Bcast(th, root, data))
			})
			for me, v := range got {
				if v != 42.5 {
					t.Errorf("n=%d member %d got %v, want 42.5", n, me, v)
				}
			}
		}
	})
}

func TestReduceAndAllReduce(t *testing.T) {
	backends(t, func(t *testing.T, liveBE bool) {
		for _, n := range []int{1, 2, 3, 6, 7} {
			rootGot := math.NaN()
			all := make([]float64, n)
			runTeam(t, n, liveBE, func(tm *Team, th *threads.Thread, me int) {
				v := EncF64(float64(me + 1))
				if res, isRoot := tm.Reduce(th, 2%n, v, SumF64); isRoot {
					rootGot = DecF64(res)
				}
				all[me] = DecF64(tm.AllReduce(th, EncF64(float64(me+1)), SumF64))
			})
			want := float64(n*(n+1)) / 2
			if rootGot != want {
				t.Errorf("n=%d: Reduce root got %v, want %v", n, rootGot, want)
			}
			for me, v := range all {
				if v != want {
					t.Errorf("n=%d member %d: AllReduce got %v, want %v", n, me, v, want)
				}
			}
		}
	})
}

func TestGatherScatterAllGather(t *testing.T) {
	backends(t, func(t *testing.T, liveBE bool) {
		for _, n := range []int{1, 2, 3, 5, 6} {
			root := n / 2
			var gathered []float64
			scattered := make([]float64, n)
			allG := make([][]float64, n)
			runTeam(t, n, liveBE, func(tm *Team, th *threads.Thread, me int) {
				if parts, isRoot := tm.Gather(th, root, EncF64(float64(10+me))); isRoot {
					gathered = make([]float64, n)
					for r, b := range parts {
						gathered[r] = DecF64(b)
					}
				}
				var parts [][]byte
				if me == root {
					parts = make([][]byte, n)
					for r := range parts {
						parts[r] = EncF64(float64(100 + r))
					}
				}
				scattered[me] = DecF64(tm.Scatter(th, root, parts))
				ag := tm.AllGather(th, EncF64(float64(1000+me)))
				allG[me] = make([]float64, n)
				for r, b := range ag {
					allG[me][r] = DecF64(b)
				}
			})
			for r := 0; r < n; r++ {
				if gathered[r] != float64(10+r) {
					t.Errorf("n=%d: gathered[%d]=%v, want %v", n, r, gathered[r], float64(10+r))
				}
				if scattered[r] != float64(100+r) {
					t.Errorf("n=%d: scattered[%d]=%v, want %v", n, r, scattered[r], float64(100+r))
				}
				for me := 0; me < n; me++ {
					if allG[me][r] != float64(1000+r) {
						t.Errorf("n=%d member %d: allgather[%d]=%v, want %v", n, me, r, allG[me][r], float64(1000+r))
					}
				}
			}
		}
	})
}

func TestSplitSubteams(t *testing.T) {
	backends(t, func(t *testing.T, liveBE bool) {
		// 6 nodes split into even/odd colors; keys reverse the even team's
		// rank order. Subteam collectives must not interfere with each other
		// or with the parent team.
		const n = 6
		sums := make([]float64, n)
		sizes := make([]int, n)
		ranks := make([]int, n)
		worldAfter := make([]float64, n)
		runTeam(t, n, liveBE, func(tm *Team, th *threads.Thread, me int) {
			sub := tm.Split(th, me%2, -me) // negative keys reverse rank order
			sizes[me] = sub.Size()
			ranks[me] = sub.Rank(th)
			sums[me] = DecF64(sub.AllReduce(th, EncF64(float64(me)), SumF64))
			tm.Barrier(th)
			worldAfter[me] = DecF64(tm.AllReduce(th, EncF64(1), SumF64))
		})
		for me := 0; me < n; me++ {
			if sizes[me] != 3 {
				t.Errorf("member %d: subteam size %d, want 3", me, sizes[me])
			}
			want := 0.0 + 2 + 4
			if me%2 == 1 {
				want = 1 + 3 + 5
			}
			if sums[me] != want {
				t.Errorf("member %d: subteam sum %v, want %v", me, sums[me], want)
			}
			// Keys -me sort descending by node, so rank 0 is the largest node.
			wantRank := (n - 1 - me) / 2
			if ranks[me] != wantRank {
				t.Errorf("member %d: subteam rank %d, want %d", me, ranks[me], wantRank)
			}
			if worldAfter[me] != n {
				t.Errorf("member %d: world AllReduce after split %v, want %v", me, worldAfter[me], float64(n))
			}
		}
	})
}

func TestSplitOptOut(t *testing.T) {
	const n = 4
	gotNil := make([]bool, n)
	sums := make([]float64, n)
	runTeam(t, n, false, func(tm *Team, th *threads.Thread, me int) {
		color := 0
		if me == 3 {
			color = -1 // opts out, but still participates in the exchange
		}
		sub := tm.Split(th, color, me)
		if sub == nil {
			gotNil[me] = true
			return
		}
		sums[me] = DecF64(sub.AllReduce(th, EncF64(float64(me+1)), SumF64))
	})
	if !gotNil[3] {
		t.Error("member 3 (color<0) did not get a nil subteam")
	}
	for me := 0; me < 3; me++ {
		if gotNil[me] || sums[me] != 6 {
			t.Errorf("member %d: nil=%v sum=%v, want 1+2+3=6", me, gotNil[me], sums[me])
		}
	}
}

// TestUnpackEntriesHostileWords: a packed gather/scatter message is rank and
// length words from another node, possibly another process. A word that
// points outside the team or past the payload fails by name, never as an
// index or slice-bounds runtime error.
func TestUnpackEntriesHostileWords(t *testing.T) {
	entry := func(rank, ln uint64, body int) []byte {
		b := make([]byte, 16+body)
		binary.LittleEndian.PutUint64(b, rank)
		binary.LittleEndian.PutUint64(b[8:], ln)
		return b
	}
	rows := []struct {
		name string
		b    []byte
		want string
	}{
		{"rank outside the team", entry(4, 0, 0), "coll: packed entry for rank 4 of a 4-member team"},
		{"rank with the top bit set", entry(1<<63, 0, 0), "coll: packed entry for rank 9223372036854775808 of a 4-member team"},
		{"length past the payload", entry(1, 9, 8), "coll: packed entry for rank 1 declares 9 bytes, 8 bytes follow"},
		{"length with the top bit set", entry(1, 1<<63, 8), "coll: packed entry for rank 1 declares 9223372036854775808 bytes, 8 bytes follow"},
		{"16+length overflows", entry(1, 1<<64-8, 8), "coll: packed entry for rank 1 declares 18446744073709551608 bytes, 8 bytes follow"},
		{"truncated header", make([]byte, 15), "coll: packed entry truncated: 15 bytes, no room for its rank and length words"},
		{"truncated header after a good entry", append(entry(0, 2, 2), 1, 2, 3), "coll: packed entry truncated: 3 bytes, no room for its rank and length words"},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			defer func() {
				if got := fmt.Sprint(recover()); got != r.want {
					t.Fatalf("unpack failed with %q, want %q", got, r.want)
				}
			}()
			unpackEntries(r.b, make([][]byte, 4))
		})
	}
	parts := make([][]byte, 4)
	unpackEntries(append(entry(3, 1, 1), entry(0, 0, 0)...), parts)
	if len(parts[3]) != 1 || parts[0] == nil || len(parts[0]) != 0 || parts[1] != nil {
		t.Fatalf("well-formed entries landed as %v", parts)
	}
}

// TestCollHostileWords: a collective message is words from another node,
// possibly another process, and the handler stores what they name. A word no
// genuine sender puts there, or a second message for a mailbox entry not yet
// taken, fails by name — the node, the sender, the cause — rather than
// landing in the mailbox (or, the duplicate, silently replacing the first).
func TestCollHostileWords(t *testing.T) {
	const n = 4
	msg := func(team uint64, phase byte, slot uint32, payload string) am.Msg {
		m := am.Msg{Src: 0, Dst: 1, A: [4]uint64{team, 7, uint64(phase)<<32 | uint64(slot)}}
		if payload != "" {
			m.Payload = []byte(payload)
		}
		return m
	}
	rows := []struct {
		name string
		msgs []am.Msg
		want string
	}{
		{"phase outside the five", []am.Msg{msg(0, 'q', 0, "")}, "unknown phase 0x71"},
		{"slot past the machine", []am.Msg{msg(0, 'b', n, "")}, "slot 4 on a 4-node machine"},
		{"team led by no node", []am.Msg{msg(n<<32|1, 'r', 1, "ab")}, "team led by node 4 on a 4-node machine"},
		{"barrier round with a payload", []am.Msg{msg(0, 'x', 1, "abc")}, "barrier round 1 carries a 3-byte payload"},
		{"second message for a filled slot", []am.Msg{msg(0, 'g', 2, "ab"), msg(0, 'g', 2, "cd")},
			"second message for phase g slot 2 before the first was taken"},
	}
	named := regexp.MustCompile(`^coll: node 1 message from node 0 \(team 0x[0-9a-f]+, sequence 7\): `)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var refused string
			runTeam(t, n, false, func(tm *Team, th *threads.Thread, me int) {
				if me != 1 {
					return
				}
				defer func() { refused = fmt.Sprint(recover()) }()
				for _, m := range row.msgs {
					tm.c.deliver(th, m)
				}
			})
			if !named.MatchString(refused) || !strings.HasSuffix(refused, row.want) {
				t.Errorf("handler failed with %q, want the named refusal (node 1, from node 0, %q)", refused, row.want)
			}
		})
	}
}
