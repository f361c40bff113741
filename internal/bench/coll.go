package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/threads"
)

// CollRow is one line of the collective-operations table: the log-depth
// team collectives measured end to end in virtual time on the calibrated
// model.
type CollRow struct {
	Name  string        `json:"name"`
	Nodes int           `json:"nodes"`
	Iters int           `json:"iters"`
	PerOp time.Duration `json:"per_op"`
	MBps  float64       `json:"mbps"` // non-zero for bandwidth rows
}

// collBcastBytes sizes the broadcast-bandwidth row.
const collBcastBytes = 8 << 10

// measureColl times body (one collective op) across iters iterations on a
// fresh n-node simulator rig, per-op as seen by rank 0.
func measureColl(cfg machine.Config, n, iters int,
	body func(tm *coll.Team, th *threads.Thread)) time.Duration {
	rt := core.NewRuntime(machine.New(cfg, n))
	tm := coll.For(rt).World()
	var per time.Duration
	for i := 0; i < n; i++ {
		i := i
		rt.OnNode(i, func(th *threads.Thread) {
			// Warm the mailbox maps and buffer pools.
			for k := 0; k < 2; k++ {
				body(tm, th)
			}
			start := th.Now()
			for k := 0; k < iters; k++ {
				body(tm, th)
			}
			if i == 0 {
				per = time.Duration(th.Now()-start) / time.Duration(iters)
			}
		})
	}
	if err := rt.Run(); err != nil {
		panic(err)
	}
	return per
}

// RunCollBench measures the team collectives — barrier, 8-node all-reduce,
// broadcast bandwidth — on the simulator.
func RunCollBench(cfg machine.Config, sc Scale) []CollRow {
	iters := sc.MicroIters
	if iters > 200 {
		iters = 200 // collectives involve every node; cap the full scale
	}
	var rows []CollRow
	add := func(name string, nodes int, per time.Duration, bytes int) {
		r := CollRow{Name: name, Nodes: nodes, Iters: iters, PerOp: per}
		if bytes > 0 && per > 0 {
			r.MBps = float64(bytes) / per.Seconds() / (1 << 20)
		}
		rows = append(rows, r)
	}

	add("Team barrier", 4,
		measureColl(cfg, 4, iters, func(tm *coll.Team, th *threads.Thread) {
			tm.Barrier(th)
		}), 0)
	add("AllReduce f64 sum", 8,
		measureColl(cfg, 8, iters, func(tm *coll.Team, th *threads.Thread) {
			tm.AllReduce(th, coll.EncF64(1), coll.SumF64)
		}), 0)
	payload := make([]byte, collBcastBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	add(fmt.Sprintf("Bcast %d KiB", collBcastBytes/1024), 4,
		measureColl(cfg, 4, iters, func(tm *coll.Team, th *threads.Thread) {
			var data []byte
			if tm.Rank(th) == 0 {
				data = payload
			}
			tm.Bcast(th, 0, data)
		}), collBcastBytes)
	return rows
}

// FormatColl renders the collective-operations table.
func FormatColl(rows []CollRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Team collectives — log-depth trees of active messages (virtual time, calibrated SP model)\n")
	fmt.Fprintf(&b, "%-24s | %6s | %8s | %10s | %10s\n", "operation", "nodes", "iters", "per-op", "bandwidth")
	for _, r := range rows {
		bw := "-"
		if r.MBps > 0 {
			bw = fmt.Sprintf("%.0f MB/s", r.MBps)
		}
		fmt.Fprintf(&b, "%-24s | %6d | %8d | %10s | %10s\n",
			r.Name, r.Nodes, r.Iters, r.PerOp.Round(10*time.Nanosecond), bw)
	}
	fmt.Fprintf(&b, "(barrier: dissemination, ceil(log2 n) rounds; reduce/bcast: binomial trees;\n")
	fmt.Fprintf(&b, " every message is one active message: the AM layer's cost plus one receive copy)\n")
	return b.String()
}
