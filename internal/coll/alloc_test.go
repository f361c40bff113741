package coll

import (
	"runtime/debug"
	"testing"

	"repro/internal/race"
	"repro/internal/threads"
)

// TestBarrierAllocs pins what a barrier on a warm team allocates on the live
// backend, per member: two members, one dissemination round, so one message
// sent and one taken each. A round is a short active message whose words are
// the mailbox key: the send boxes nothing (the envelope is pooled), the
// handler stores an empty payload without copying it into a map whose slot
// the previous round's take freed, and take's wait closure stays on the
// stack, so it measures 0; the budget is one per member.
func TestBarrierAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const budget, runs = 1.0, 200
	var perMember float64
	runTeam(t, 2, true, func(tm *Team, th *threads.Thread, me int) {
		for i := 0; i < 8; i++ { // warm the pools and the mailbox map
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
