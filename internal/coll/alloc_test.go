package coll

import (
	"runtime/debug"
	"testing"

	"repro/internal/race"
	"repro/internal/threads"
)

// TestBarrierAllocs pins what a barrier on a warm team allocates on the live
// backend, per member: two members, one dissemination round, so one message
// sent and one taken each. The budget is the one key string Barrier builds
// (9.5 per member with fmt.Sprintf at both ends) plus what the one-way RMI
// under it costs in core: its completion and envelope, which outlive the
// call, the three wire Args of send, and the key decoded at the receiver.
// The deliver copy of a barrier's empty payload allocates nothing.
func TestBarrierAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const budget, runs = 7.0, 200
	var perMember float64
	runTeam(t, 2, true, func(tm *Team, th *threads.Thread, me int) {
		for i := 0; i < 8; i++ { // warm stub cache, R-buffers, pools, mailbox map
			tm.Barrier(th)
		}
		if me != 0 {
			for i := 0; i < runs+1; i++ { // AllocsPerRun's warm-up call and its runs
				tm.Barrier(th)
			}
			return
		}
		// Both members run inside the measured window, and the count is
		// process-wide: halve it.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		perMember = testing.AllocsPerRun(runs, func() { tm.Barrier(th) }) / 2
	})
	t.Logf("%.1f allocations per member per barrier", perMember)
	if perMember > budget {
		t.Errorf("a warm 2-member barrier allocates %.1f per member, budget %v", perMember, budget)
	}
}
