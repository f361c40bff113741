package machine

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"repro/internal/metrics"
)

// ShardStats is one address space's contribution to the machine-wide stats
// report: which nodes it ran, their merged accounting, and the shard's merged
// wall-clock metrics. It is the JSON payload of the netlive kStats control
// frame — workers serialize one at the end of the run for the parent.
type ShardStats struct {
	Shard   int              `json:"shard"`
	Nodes   []int            `json:"nodes"`
	Acct    Snapshot         `json:"acct"`
	Metrics metrics.Snapshot `json:"metrics"`
}

// LocalStats reports the stats of the nodes executing in this address space:
// every node on single-process backends, this shard's nodes on netlive. Safe
// to call while the machine runs — accounting cells and metrics instruments
// are individually atomic (the whole is a racy-but-consistent-enough cut, as
// merged reporting wants).
func (m *Machine) LocalStats() ShardStats {
	s := ShardStats{}
	if m.shard != nil {
		s.Shard = m.shard.Shard()
	}
	var snaps []Snapshot
	for i, nd := range m.nodes {
		if m.shard == nil || m.shard.IsLocal(i) {
			s.Nodes = append(s.Nodes, i)
			snaps = append(snaps, nd.Acct.Snapshot())
		}
	}
	s.Acct = MergeSnapshots(snaps...)
	if m.wall != nil {
		s.Metrics = m.wall.MetricsSnapshot()
	}
	return s
}

// localStatsPayload serializes LocalStats for the backend's stats control
// plane (the kStats frame body). Installed as the Sharded stats provider at
// machine construction.
func (m *Machine) localStatsPayload() []byte {
	b, err := json.Marshal(m.LocalStats())
	if err != nil {
		// A ShardStats is plain data; marshalling cannot fail short of a bug.
		panic(fmt.Sprintf("machine: stats payload marshal: %v", err))
	}
	return b
}

// Metrics returns the merged wall-clock metrics of this address space's
// backend. ok is false on backends without metrics (the simulator).
func (m *Machine) Metrics() (s metrics.Snapshot, ok bool) {
	if m.wall == nil {
		return metrics.Snapshot{}, false
	}
	return m.wall.MetricsSnapshot(), true
}

// ClusterStats is the machine-wide stats report: every shard's contribution
// plus the merged totals. On single-process backends it has exactly one
// shard; on netlive the parent assembles it from its own LocalStats and the
// kStats payloads received from worker shards.
type ClusterStats struct {
	Shards  []ShardStats     `json:"shards"`
	Acct    Snapshot         `json:"acct"`
	Metrics metrics.Snapshot `json:"metrics"`
}

// ClusterStats assembles the machine-wide report. On sharded backends it must
// be called on the parent after Run returns (workers have reported by then);
// it errors if a worker shard's payload is missing, unparseable, or not that
// shard's (another index, a node outside the machine or another shard's), if
// a node goes unreported, if a payload holds a count, charge, gauge or
// histogram field that is negative or larger than its share of an int64 (so
// that no machine-wide total can overflow), or a histogram whose count is not
// the sum of its buckets: a lost, misfiled or corrupt stats frame is a loud
// failure rather than made-up totals.
func (m *Machine) ClusterStats() (ClusterStats, error) {
	cs := ClusterStats{Shards: []ShardStats{m.LocalStats()}}
	if m.shard != nil {
		if m.shard.Shard() != 0 {
			return ClusterStats{}, fmt.Errorf("machine: ClusterStats on worker shard %d (parent only)", m.shard.Shard())
		}
		peers := m.shard.PeerStats()
		seen := make([]bool, len(m.nodes)) // the nodes a shard has reported
		for _, nd := range cs.Shards[0].Nodes {
			seen[nd] = true
		}
		// A field is at most its share of an int64, so no machine-wide total
		// of the shards' parts overflows.
		share := int64(math.MaxInt64 / m.shard.NumShards())
		for shard := 1; shard < m.shard.NumShards(); shard++ {
			payload, ok := peers[shard]
			if !ok {
				return ClusterStats{}, fmt.Errorf("machine: no stats payload from shard %d", shard)
			}
			var ss ShardStats
			if err := json.Unmarshal(payload, &ss); err != nil {
				return ClusterStats{}, fmt.Errorf("machine: stats payload from shard %d: %v", shard, err)
			}
			if ss.Shard != shard {
				return ClusterStats{}, fmt.Errorf("machine: stats payload from shard %d is shard %d's", shard, ss.Shard)
			}
			f := ss.Acct.outside(share)
			if f == "" {
				f = ss.Metrics.Outside(share)
			}
			if f != "" {
				return ClusterStats{}, fmt.Errorf("machine: stats payload from shard %d has %s outside [0, %d]", shard, f, share)
			}
			if h := ss.Metrics.Miscounted(); h != "" {
				return ClusterStats{}, fmt.Errorf("machine: stats payload from shard %d has %s with a count that is not the sum of its buckets", shard, h)
			}
			for _, nd := range ss.Nodes {
				if nd < 0 || nd >= len(seen) || seen[nd] || m.shard.ShardOf(nd) != shard {
					return ClusterStats{}, fmt.Errorf("machine: stats payload from shard %d names node %d, not its own", shard, nd)
				}
				seen[nd] = true
			}
			cs.Shards = append(cs.Shards, ss)
		}
		if nd := slices.Index(seen, false); nd >= 0 {
			return ClusterStats{}, fmt.Errorf("machine: shard %d's stats payload leaves out its node %d", m.shard.ShardOf(nd), nd)
		}
	}
	accts := make([]Snapshot, 0, len(cs.Shards))
	mets := make([]metrics.Snapshot, 0, len(cs.Shards))
	for _, ss := range cs.Shards {
		accts = append(accts, ss.Acct)
		mets = append(mets, ss.Metrics)
	}
	cs.Acct = MergeSnapshots(accts...)
	cs.Metrics = metrics.Merge(mets...)
	return cs, nil
}
