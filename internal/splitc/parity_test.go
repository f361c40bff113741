package splitc

import (
	"testing"
	"time"

	"repro/internal/machine"
)

// The barrier, all_reduce and all_bcast (splitc.go, collectives.go) have
// been rewritten more than once; their measured cost behavior must not move,
// because the paper's calibrated tables (Table 4's barrier-synchronized
// loops, the Figure 5/6 applications) are built on them. These golden totals
// were captured from the first implementation on the calibrated SP model: a
// fixed program of three barriers, two all_reduces, and an all_bcast.
func TestCollectiveCostParity(t *testing.T) {
	golden := map[int]struct {
		total     time.Duration // machine virtual time at completion
		node0Msgs int64         // short AMs sent by the coordinating node
	}{
		2: {360 * time.Microsecond, 18},
		4: {402 * time.Microsecond, 30},
		8: {486 * time.Microsecond, 54},
	}
	for procs, want := range golden {
		m := machine.New(machine.SP1997(), procs)
		w := New(m)
		var r1, r2, r3 float64
		err := w.Run(func(p *Proc) {
			p.Barrier()
			s1 := p.AllReduce(float64(p.MyPC()+1), OpSum)
			p.Barrier()
			s2 := p.AllReduce(float64(p.MyPC()), OpMax)
			s3 := p.AllBcast(procs-1, 7.5)
			p.Barrier()
			if p.MyPC() == 0 {
				r1, r2, r3 = s1, s2, s3
			}
		})
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if got := m.Eng.Now(); got != want.total {
			t.Errorf("procs=%d: virtual total %v, want %v (rewired collectives changed modelled cost)", procs, got, want.total)
		}
		if got := m.Node(0).Acct.Counter(machine.CntMsgShort); got != want.node0Msgs {
			t.Errorf("procs=%d: node 0 sent %d short AMs, want %d (message pattern changed)", procs, got, want.node0Msgs)
		}
		wantSum := float64(procs*(procs+1)) / 2
		if r1 != wantSum || r2 != float64(procs-1) || r3 != 7.5 {
			t.Errorf("procs=%d: results %v/%v/%v, want %v/%v/7.5", procs, r1, r2, r3, wantSum, procs-1)
		}
	}
}
