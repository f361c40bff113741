package bench

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/metrics"
)

// TestStatsRowNotifyBranches: once any notify has been counted, the row
// carries all three branch counters (direct, queued, dropped), zeros
// included — likewise the link-drop counter beside the socket frame counters
// and the fragment counters beside the ring frame counters, the reader's share
// and wake-ups beside the procs' share of the frames drained, the idle parks
// that blocked beside those that did not; a scope with no live traffic carries
// none.
func TestStatsRowNotifyBranches(t *testing.T) {
	var met metrics.Snapshot
	met.Counters[metrics.CtrNotifyDirect] = 3
	met.Counters[metrics.CtrFramesIn] = 2
	met.Counters[metrics.CtrShmFramesOut] = 5
	met.Counters[metrics.CtrShmFramesInProc] = 4
	met.Counters[metrics.CtrIdlePolls] = 4
	row := statsRow("machine", 2, machine.Snapshot{}, met)
	want := map[string]int64{
		"live.notify.direct": 3, "live.notifies": 0, "live.notify.dropped": 0,
		"net.frames.in": 2, "net.frames.out": 0, "net.link.dropped": 0,
		"shm.frames.out": 5, "shm.frames.in": 0, "shm.fragments.out": 0, "shm.fragments.in": 0,
		"shm.frames.in.proc": 4, "shm.frames.in.reader": 0, "shm.wakes.spin": 0, "shm.wakes.park": 0,
		"live.idle.polls": 4, "live.idle.parks": 0,
	}
	for name, v := range want {
		if got, ok := row.Wall[name]; !ok || got != v {
			t.Errorf("Wall[%q] = %d (present %v), want %d", name, got, ok, v)
		}
	}
	if row := statsRow("machine", 2, machine.Snapshot{}, metrics.Snapshot{}); len(row.Wall) != 0 {
		t.Errorf("row without live traffic has wall counters: %v", row.Wall)
	}
}
