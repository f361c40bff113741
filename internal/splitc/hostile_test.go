package splitc

import (
	"testing"
	"time"

	"repro/internal/am/amtest"
	"repro/internal/machine"
	"repro/internal/threads"
)

// TestSplitCHostileWords runs the rows of the remote-memory protocol's one
// hostile-word table (amtest.Rows) that are named for Split-C through the
// world's own protocol: node 1 refuses each message by name (node, sender,
// cause) before its words index anything.
func TestSplitCHostileWords(t *testing.T) {
	for _, r := range amtest.Rows {
		if r.SC == "" {
			continue
		}
		t.Run(r.SC, func(t *testing.T) {
			w := New(machine.New(machine.SP1997(), 2))
			w.Share([][]float64{make([]float64, 4), make([]float64, 4)})
			w.Share([][]float64{make([]float64, 4), nil})
			amtest.Check(t, r, amtest.Rig{Mem: w.mem, Net: w.net, Start: func(prog func(*threads.Thread)) {
				_ = w.Run(func(p *Proc) { prog(p.T) })
			}}.Drive(r))
		})
	}
}

// TestCollectiveHostileWords sends all_reduce messages whose words no Split-C
// program sends: each is refused by name (node, sender, cause) before it
// touches the collective state.
func TestCollectiveHostileWords(t *testing.T) {
	for _, r := range []struct {
		name     string
		result   bool // for sc.coll.result, else sc.coll.contrib
		src, dst int
		a        [4]uint64
		want     string
	}{
		{"contribution to a node other than 0", false, 0, 1, [4]uint64{0, uint64(OpSum)},
			"splitc: node 1 all_reduce contribution from node 0: only node 0 combines"},
		{"contribution with an unknown operator", false, 1, 0, [4]uint64{0, 7},
			"splitc: node 0 all_reduce contribution from node 1: unknown operator 7"},
		{"result past the next generation", true, 0, 1, [4]uint64{0, 2},
			"splitc: node 1 all_reduce result from node 0 for generation 2, awaiting 1"},
	} {
		t.Run(r.name, func(t *testing.T) {
			w := New(machine.New(machine.SP1997(), 2))
			h := w.coll.hContrib
			if r.result {
				h = w.coll.hResult
			}
			var refused [2][]string
			_ = w.Run(func(p *Proc) {
				if p.MyPC() == r.src {
					p.ep.Request(p.T, r.dst, h, r.a, nil, false)
				}
				for range 4 {
					p.T.Compute(time.Millisecond)
					refused[p.MyPC()] = append(refused[p.MyPC()], amtest.Poll(p.T, p.ep)...)
				}
			})
			if len(refused[r.dst]) == 0 || refused[r.dst][0] != r.want {
				t.Errorf("node %d refused %q, want %q first", r.dst, refused[r.dst], r.want)
			}
		})
	}
}
