package splitc

import (
	"testing"

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
