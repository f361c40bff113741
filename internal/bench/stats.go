package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/threads"
	"repro/internal/trace"
	"repro/internal/transport/live"
	"repro/internal/transport/netlive"
)

// statsNodes is the stats machine's size: two clients, each driving null
// RMIs at its paired server. On the net backend the machine is two shards of
// two, clients in the parent process and servers in the re-exec'd worker, so
// every RMI crosses the process boundary.
const statsNodes = 4

// RunStats drives sc.MicroIters null RMIs per client on one machine of the
// given backend ("sim", "live" or "net") and returns the machine-wide
// observability rows: merged accounting plus, on the wall-clock backends,
// latency percentiles and message-plane counters — on net the cross-process
// merge of every shard's kStats report, with one row per shard after the
// machine row. When tl is non-nil the run is traced into it: this is the
// machine mpmdbench's -trace flag captures.
//
// On the net backend the program is re-exec'd for the worker shard, which
// enters here too, serves the parent's clients and returns no rows; the
// caller exits it without reporting (the parent owns stdout).
func RunStats(cfg machine.Config, sc Scale, backend string, tl *trace.Log) ([]StatsRow, error) {
	var m *machine.Machine
	worker := false
	switch backend {
	case "sim":
		m = machine.New(cfg, statsNodes)
	case "live":
		m = machine.NewWithBackend(cfg, statsNodes, live.New(statsNodes, live.Options{Watchdog: 2 * time.Minute}))
	case "net":
		be, err := netlive.New(statsNodes, netlive.Options{NodesPerShard: statsNodes / 2})
		if err != nil {
			return nil, err
		}
		worker = be.Shard() != 0
		m = machine.NewWithBackend(cfg, statsNodes, be)
	default:
		return nil, fmt.Errorf("stats: unknown backend %q", backend)
	}
	if tl != nil {
		trace.Attach(m, tl)
	}
	rt := core.NewRuntime(m)
	rt.RegisterClass(&core.Class{
		Name: "Null",
		New:  func() any { return new(struct{}) },
		Methods: []*core.Method{
			{Name: "null", Fn: func(t *threads.Thread, self any, a []core.Arg, r core.Arg) {}},
		},
	})
	const pairs = statsNodes / 2
	for i := 0; i < pairs; i++ {
		gp := rt.CreateObject(pairs+i, "Null")
		rt.OnNode(i, func(t *threads.Thread) {
			for k := 0; k < sc.MicroIters; k++ {
				rt.Call(t, gp, "null", nil, nil)
			}
		})
	}
	if err := rt.Run(); err != nil {
		return nil, fmt.Errorf("stats on %s: %w", backend, err)
	}
	if worker {
		return nil, nil
	}
	cs, err := m.ClusterStats()
	if err != nil {
		return nil, fmt.Errorf("stats on %s: %w", backend, err)
	}
	return StatsRows(cs), nil
}

// HistRow is one latency (or size) histogram rendered for a report: count,
// log-bucket percentiles, observed max, and mean. Durations are nanoseconds.
type HistRow struct {
	Count int64 `json:"count"`
	P50   int64 `json:"p50"`
	P99   int64 `json:"p99"`
	P999  int64 `json:"p999"`
	Max   int64 `json:"max"`
	Mean  int64 `json:"mean"`
}

// GaugeRow is one gauge rendered for a report: its high-water mark.
type GaugeRow struct {
	Max int64 `json:"max"`
}

// StatsRow is one scope of the observability experiment: the machine-wide
// merge, or one shard's contribution. Counter/gauge/histogram maps are
// name-keyed (Go marshals map keys sorted, so the JSON is deterministic) and
// carry only non-zero instruments.
type StatsRow struct {
	// Scope is "machine" for the merged row, "shard<i>" for per-shard rows.
	Scope string `json:"scope"`
	Nodes int    `json:"nodes"`
	// BusyNS and Buckets are the accounting side: charged virtual time, total
	// and per category. Only the simulator charges; on live and net they are 0.
	BusyNS  int64            `json:"busy_ns"`
	Buckets map[string]int64 `json:"buckets_ns,omitempty"`
	// Counters are the machine.Acct event counters (RMIs, handlers, bytes).
	Counters map[string]int64 `json:"counters,omitempty"`
	// Wall, Gauges and Hists are the wall-clock metrics registry: message
	// plane counters, queue-depth gauges, and latency/size histograms with
	// percentiles. Empty on the sim backend, which has no wall-clock story.
	Wall   map[string]int64    `json:"wall_counters,omitempty"`
	Gauges map[string]GaugeRow `json:"gauges,omitempty"`
	Hists  map[string]HistRow  `json:"hists,omitempty"`
}

// statsRow renders one scope.
func statsRow(scope string, nodes int, acct machine.Snapshot, met metrics.Snapshot) StatsRow {
	row := StatsRow{Scope: scope, Nodes: nodes, BusyNS: int64(acct.Busy())}
	for _, c := range machine.Categories() {
		if d := acct.Get(c); d != 0 {
			if row.Buckets == nil {
				row.Buckets = map[string]int64{}
			}
			row.Buckets[c.String()] = int64(d)
		}
	}
	for c, v := range acct.Counters {
		if v != 0 {
			if row.Counters == nil {
				row.Counters = map[string]int64{}
			}
			row.Counters[machine.Cnt(c).String()] = v
		}
	}
	for _, c := range metrics.Counters() {
		if v := met.Counter(c); v != 0 {
			if row.Wall == nil {
				row.Wall = map[string]int64{}
			}
			row.Wall[c.String()] = v
		}
	}
	// The branches one event can take are shown together: beside a non-zero
	// sibling a zero is the reading ("none fell back to the queue", "none
	// dropped", "none fragmented"), not an absent instrument. An arrival's
	// notify takes one of three; a socket frame is sent or dropped at its
	// link; a ring frame is one record or several fragments, and is drained
	// by an idle proc or by the reader, whose own waits end in its spin or in
	// a doorbell park; a proc that parks idle gets its wake-up while it polls
	// or after it has blocked.
	for _, branches := range [...][]metrics.Ctr{
		{metrics.CtrNotifyDirect, metrics.CtrNotifies, metrics.CtrNotifyDropped},
		{metrics.CtrFramesOut, metrics.CtrFramesIn, metrics.CtrLinkDropped},
		{metrics.CtrShmFramesOut, metrics.CtrShmFragsOut, metrics.CtrShmFragsIn},
		{metrics.CtrShmFramesInProc, metrics.CtrShmFramesInReader, metrics.CtrShmSpinWakes, metrics.CtrShmParkWakes},
		{metrics.CtrIdlePolls, metrics.CtrIdleParks},
	} {
		var seen int64
		for _, c := range branches {
			seen |= met.Counter(c)
		}
		if seen != 0 { // so row.Wall exists: the loop above stored the non-zero one
			for _, c := range branches {
				row.Wall[c.String()] = met.Counter(c)
			}
		}
	}
	for _, g := range metrics.Gauges() {
		if gs := met.Gauge(g); gs.Max != 0 {
			if row.Gauges == nil {
				row.Gauges = map[string]GaugeRow{}
			}
			row.Gauges[g.String()] = GaugeRow{Max: gs.Max}
		}
	}
	for _, h := range metrics.Hists() {
		hs := met.Hist(h)
		if hs.Count == 0 {
			continue
		}
		if row.Hists == nil {
			row.Hists = map[string]HistRow{}
		}
		row.Hists[h.String()] = HistRow{
			Count: hs.Count, P50: hs.P50(), P99: hs.P99(), P999: hs.P999(),
			Max: hs.Max, Mean: hs.Mean(),
		}
	}
	return row
}

// StatsRows renders a machine-wide ClusterStats as report rows: the merged
// "machine" row first, then one row per shard (only when the machine actually
// spans several).
func StatsRows(cs machine.ClusterStats) []StatsRow {
	nodes := 0
	for _, ss := range cs.Shards {
		nodes += len(ss.Nodes)
	}
	rows := []StatsRow{statsRow("machine", nodes, cs.Acct, cs.Metrics)}
	if len(cs.Shards) > 1 {
		for _, ss := range cs.Shards {
			rows = append(rows, statsRow(fmt.Sprintf("shard%d", ss.Shard), len(ss.Nodes), ss.Acct, ss.Metrics))
		}
	}
	return rows
}

// FormatStats renders the observability rows: per scope, the accounting
// counts and — on the wall-clock backends — the metrics-registry group under
// its own "wall-clock" heading. Charged time is the simulator's alone: it is
// virtual time there, and a wall-clock machine charges nothing.
func FormatStats(rows []StatsRow, backend string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Machine-wide observability (%s backend)\n", backend)
	for _, r := range rows {
		fmt.Fprintf(&b, "%s (%d nodes)\n", r.Scope, r.Nodes)
		if backend == "sim" {
			fmt.Fprintf(&b, "  virtual time: busy %v", time.Duration(r.BusyNS).Round(time.Microsecond))
		} else {
			b.WriteString("  counts:")
		}
		for _, name := range sortedKeys(r.Counters) {
			switch name {
			case "core.rmi", "am.handlers", "am.msg.short", "am.msg.bulk":
				fmt.Fprintf(&b, "  %s=%d", name, r.Counters[name])
			}
		}
		b.WriteByte('\n')
		if backend == "sim" {
			continue
		}
		fmt.Fprintf(&b, "  wall-clock:")
		for _, name := range sortedKeys(r.Wall) {
			fmt.Fprintf(&b, "  %s=%d", name, r.Wall[name])
		}
		b.WriteByte('\n')
		for _, name := range sortedKeys(r.Hists) {
			h := r.Hists[name]
			if strings.HasSuffix(name, ".ns") {
				fmt.Fprintf(&b, "    %-20s n=%-8d p50=%-10v p99=%-10v p999=%-10v max=%v\n",
					name, h.Count, time.Duration(h.P50), time.Duration(h.P99),
					time.Duration(h.P999), time.Duration(h.Max))
			} else {
				fmt.Fprintf(&b, "    %-20s n=%-8d p50=%-10d p99=%-10d p999=%-10d max=%d\n",
					name, h.Count, h.P50, h.P99, h.P999, h.Max)
			}
		}
	}
	fmt.Fprintf(&b, "(counters merge every shard of the machine; percentiles are log-bucket upper bounds)\n")
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
