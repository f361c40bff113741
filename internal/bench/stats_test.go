package bench

import (
	"strings"
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
		"shm.frames.out": 5, "shm.fragments.out": 0, "shm.fragments.in": 0,
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

// TestRunStats runs the report mpmdbench prints: the null-RMI workload's
// count is exact on every backend, the simulator row carries nothing from the
// wall-clock registry, and a live row's latency histogram saw every RMI.
func TestRunStats(t *testing.T) {
	sc := Quick()
	wantRMI := int64(statsNodes / 2 * sc.MicroIters)
	for _, backend := range []string{"sim", "live"} {
		rows, err := RunStats(Cfg(), sc, backend, nil)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if len(rows) != 1 || rows[0].Scope != "machine" || rows[0].Nodes != statsNodes {
			t.Fatalf("%s: want one machine row of %d nodes, got %+v", backend, statsNodes, rows)
		}
		row := rows[0]
		if got := row.Counters["core.rmi"]; got != wantRMI {
			t.Errorf("%s: core.rmi = %d, want %d", backend, got, wantRMI)
		}
		if backend == "sim" {
			if len(row.Wall)+len(row.Gauges)+len(row.Hists) != 0 {
				t.Errorf("sim row carries wall-clock metrics: %v %v %v", row.Wall, row.Gauges, row.Hists)
			}
			continue
		}
		// A wall-clock machine charges nothing, and the runtime's lock pairs —
		// all the sync ops a null RMI has — are neither charged nor counted.
		if row.BusyNS != 0 || len(row.Buckets) != 0 || row.Counters["thread.sync"] != 0 {
			t.Errorf("live: busy %dns, buckets %v, thread.sync %d; want a wall-clock machine to charge nothing",
				row.BusyNS, row.Buckets, row.Counters["thread.sync"])
		}
		if got := row.Hists["rmi.latency.ns"].Count; got != wantRMI {
			t.Errorf("live: rmi.latency.ns count = %d, want core.rmi = %d", got, wantRMI)
		}
		if got, ok := row.Wall["live.notify.dropped"]; !ok || got != 0 {
			t.Errorf("live: live.notify.dropped = %d (present %v), want present and 0", got, ok)
		}
	}
	if _, err := RunStats(Cfg(), sc, "bogus", nil); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestFormatStatsLabelsClocks: the report never prints a modelled 1997 charge
// beside a wall-clock number. On the simulator everything is virtual time; on
// live and net nothing is charged, so there is no "busy" at all — the
// accounting counts stand alone and the registry's numbers come under their
// own wall-clock heading.
func TestFormatStatsLabelsClocks(t *testing.T) {
	var met metrics.Snapshot
	met.Counters[metrics.CtrNotifyDirect] = 3
	wallRow := []StatsRow{statsRow("machine", 2, machine.Snapshot{}, met)}
	simRow := []StatsRow{statsRow("machine", 2, machine.Snapshot{}, metrics.Snapshot{})}
	const counts, wall, virtual = "counts:", "wall-clock:", "virtual time: busy"
	for _, backend := range []string{"live", "net"} {
		out := FormatStats(wallRow, backend)
		c, w := strings.Index(out, counts), strings.Index(out, wall)
		if c < 0 || w < c || strings.Contains(out, "busy") || strings.Contains(out, "modelled") {
			t.Errorf("%s report headings wrong:\n%s", backend, out)
		}
		if n := strings.Index(out, "live.notify.direct=3"); n < w {
			t.Errorf("%s: registry counter printed above the wall-clock heading:\n%s", backend, out)
		}
	}
	out := FormatStats(simRow, "sim")
	if !strings.Contains(out, virtual) || strings.Contains(out, counts) || strings.Contains(out, wall) {
		t.Errorf("sim report headings wrong:\n%s", out)
	}
}
