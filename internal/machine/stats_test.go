package machine_test

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/am"
	"repro/internal/machine"
	"repro/internal/threads"
	"repro/internal/transport"
	"repro/internal/transport/live"
)

// parentStub is the parent of a 6-node machine in three shards of two nodes,
// whose workers' stats payloads a test supplies: the transport.Sharded that
// ClusterStats reads, and nothing else.
type parentStub struct {
	*live.Backend
	peers map[int][]byte
}

func (s *parentStub) NumShards() int        { return 3 }
func (s *parentStub) Shard() int            { return 0 }
func (s *parentStub) IsLocal(node int) bool { return node < 2 }
func (s *parentStub) ShardOf(node int) int  { return node / 2 }

func (s *parentStub) Quiesce(func() ([4]uint64, bool), func()) func()                { return nil }
func (s *parentStub) SendRemote(int, int, int, transport.FrameMarshaler)             {}
func (s *parentStub) SetRemoteHandler(func(src, dst, size int, payload []byte) bool) {}
func (s *parentStub) SetStatsProvider(func() []byte)                                 {}
func (s *parentStub) PeerStats() map[int][]byte                                      { return s.peers }

// clusterStats is the ClusterStats of a parentStub machine whose workers sent
// peers.
func clusterStats(peers map[int][]byte) (machine.ClusterStats, error) {
	m := machine.NewWithBackend(machine.SP1997(), 6, &parentStub{Backend: live.New(6, live.Options{}), peers: peers})
	return m.ClusterStats()
}

// TestClusterStatsRefusesMisfiledPayloads: a worker's payload is merged only
// if it is that shard's, of nodes no other shard reports, the shards together
// report every node, and no count, charge, gauge or histogram field is
// negative or above its share of an int64 (so that no machine-wide total
// overflows); anything else would make up the machine-wide totals.
func TestClusterStatsRefusesMisfiledPayloads(t *testing.T) {
	payload := func(shard int, nodes ...int) []byte {
		b, err := json.Marshal(machine.ShardStats{Shard: shard, Nodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// shard1 is shard 1's payload of its own nodes with the given fields.
	shard1 := func(fields string) []byte { return []byte(`{"shard":1,"nodes":[2,3],` + fields + `}`) }
	for _, tc := range []struct {
		name  string
		peers map[int][]byte
		want  string // "" for a report
	}{
		{"every shard its own", map[int][]byte{1: payload(1, 2, 3), 2: payload(2, 4, 5)}, ""},
		{"shard 2's payload filed under shard 1", map[int][]byte{1: payload(2, 4, 5), 2: payload(2, 4, 5)}, "from shard 1 is shard 2's"},
		{"the parent's payload filed under shard 1", map[int][]byte{1: payload(0, 0, 1), 2: payload(2, 4, 5)}, "from shard 1 is shard 0's"},
		{"the parent's nodes", map[int][]byte{1: payload(1, 0, 1), 2: payload(2, 4, 5)}, "from shard 1 names node 0, not its own"},
		{"a node outside the machine", map[int][]byte{1: payload(1, 2, 3), 2: payload(2, 4, 6)}, "from shard 2 names node 6, not its own"},
		{"another shard's node", map[int][]byte{1: payload(1, 2, 3, 4), 2: payload(2, 4, 5)}, "from shard 1 names node 4, not its own"},
		{"a node short", map[int][]byte{1: payload(1, 2), 2: payload(2, 4, 5)}, "shard 1's stats payload leaves out its node 3"},
		{"a node short of the last shard", map[int][]byte{1: payload(1, 2, 3), 2: payload(2, 4)}, "shard 2's stats payload leaves out its node 5"},
		{"a negative counter", map[int][]byte{1: shard1(`"acct":{"counters":{"am.handlers":-7}}`), 2: payload(2, 4, 5)}, "from shard 1 has am.handlers outside [0, 3074457345618258602]"},
		{"a negative charge", map[int][]byte{1: shard1(`"acct":{"buckets":[0,-1,0,0,0]}`), 2: payload(2, 4, 5)}, "from shard 1 has net outside [0, 3074457345618258602]"},
		{"a negative metrics counter", map[int][]byte{1: shard1(`"metrics":{"counters":[0,0,0,0,-1]}`), 2: payload(2, 4, 5)}, "from shard 1 has net.frames.out outside [0, 3074457345618258602]"},
		{"a negative gauge", map[int][]byte{1: shard1(`"metrics":{"gauges":[{"max":-1}]}`), 2: payload(2, 4, 5)}, "from shard 1 has live.notify.depth outside [0, 3074457345618258602]"},
		{"a negative histogram count", map[int][]byte{1: shard1(`"metrics":{"hists":[{"count":-1}]}`), 2: payload(2, 4, 5)}, "from shard 1 has rmi.latency.ns outside [0, 3074457345618258602]"},
		{"a negative histogram sum", map[int][]byte{1: shard1(`"metrics":{"hists":[{},{"sum":-1}]}`), 2: payload(2, 4, 5)}, "from shard 1 has live.poll.batch outside [0, 3074457345618258602]"},
		{"a negative histogram max", map[int][]byte{1: shard1(`"metrics":{"hists":[{},{},{"max":-1}]}`), 2: payload(2, 4, 5)}, "from shard 1 has net.writer.stall.ns outside [0, 3074457345618258602]"},
		{"a negative histogram bucket", map[int][]byte{1: shard1(`"metrics":{"hists":[{"buckets":[0,0,-3]}]}`), 2: payload(2, 4, 5)}, "from shard 1 has rmi.latency.ns outside [0, 3074457345618258602]"},
		{"a histogram count above its buckets", map[int][]byte{1: shard1(`"metrics":{"hists":[{},{"count":2,"buckets":[0,1]}]}`), 2: payload(2, 4, 5)}, "from shard 1 has live.poll.batch with a count that is not the sum of its buckets"},
		// Six buckets at their share and one of 5 sum to 2^64 + 1: a sum that
		// wraps would read the count.
		{"a histogram count below its buckets", map[int][]byte{1: shard1(`"metrics":{"hists":[{"count":1,"buckets":[5,3074457345618258602,3074457345618258602,3074457345618258602,3074457345618258602,3074457345618258602,3074457345618258602]}]}`), 2: payload(2, 4, 5)}, "from shard 1 has rmi.latency.ns with a count that is not the sum of its buckets"},
		{"a counter past its share of the total", map[int][]byte{1: shard1(`"acct":{"counters":{"am.handlers":3074457345618258603}}`), 2: payload(2, 4, 5)}, "from shard 1 has am.handlers outside [0, 3074457345618258602]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cs, err := clusterStats(tc.peers)
			if tc.want == "" {
				if err != nil || len(cs.Shards) != 3 {
					t.Fatalf("ClusterStats = %d shards, %v; want 3, nil", len(cs.Shards), err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ClusterStats error %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// trafficPayload is what LocalStats marshals from a live machine of two nodes
// that ran traffic — short and bulk messages each way, a thread parked on
// each node — filed as the given shard's, of the given nodes.
func trafficPayload(t testing.TB, shard int, nodes ...int) []byte {
	m := machine.NewWithBackend(machine.SP1997(), 2, live.New(2, live.Options{Watchdog: time.Minute}))
	net := am.NewNet(m, am.Profile{})
	var got [2]am.Count
	var h am.HandlerID
	h = net.Register("ping", func(th *threads.Thread, msg am.Msg) {
		if msg.Dst == 1 {
			net.Endpoint(1).Request(th, 0, h, msg.A, msg.Payload, msg.Bulk)
		}
		got[msg.Dst].Advance(th, 1)
	})
	for i := range 2 {
		s := threads.NewScheduler(m.Node(i))
		net.Endpoint(i).Attach(s)
		s.Start("main", func(th *threads.Thread) {
			if i == 1 {
				net.Endpoint(1).Await(th, &got[1], 8)
				return
			}
			for k := range 8 {
				bulk := k%2 == 1
				var payload []byte
				if bulk {
					payload = make([]byte, 64*k)
				}
				net.Endpoint(0).Request(th, 1, h, [4]uint64{uint64(k)}, payload, bulk)
				net.Endpoint(0).Await(th, &got[0], uint64(k+1))
			}
		})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	ss := m.LocalStats()
	ss.Shard, ss.Nodes = shard, nodes
	b, err := json.Marshal(ss)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzClusterStats feeds arbitrary bytes as shard 1's stats payload to the
// parent of a machine whose shard 2 reported traffic. Every input is refused
// with an error naming shard 1, or it is merged: every machine-wide counter, charge and metrics counter is
// then the sum of the shards' parts, no part or total is negative, and every
// histogram count is the sum of its buckets. It never panics.
func FuzzClusterStats(f *testing.F) {
	for _, seed := range []string{
		`{"shard":1,"nodes":[2,3]}`,
		`{"shard":1,"nodes":[2,3],"acct":{"counters":{"am.handlers":-7}}}`,
		`{"shard":1,"nodes":[2,3],"acct":{"buckets":[0,-1,0,0,0]}}`,
		`{"shard":1,"nodes":[2,3],"metrics":{"counters":[0,0,0,0,-1]}}`,
		`{"shard":1,"nodes":[2,3],"metrics":{"gauges":[{"max":-1}]}}`,
		`{"shard":1,"nodes":[2,3],"metrics":{"hists":[{"count":-1}]}}`,
		`{"shard":1,"nodes":[2,3],"metrics":{"hists":[{"buckets":[0,0,-3]}]}}`,
		`{"shard":1,"nodes":[2,3],"metrics":{"hists":[{},{"count":2,"buckets":[0,1]}]}}`,
		`{"shard":1,"nodes":[2,3],"acct":{"counters":{"am.handlers":9223372036854775807}}}`,
		`{"shard":2,"nodes":[2,3]}`,
		`{"shard":1,"nodes":[2]}`,
		`{"shard":1,"nodes":[0,1]}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Add(trafficPayload(f, 1, 2, 3))
	shard2 := trafficPayload(f, 2, 4, 5)
	f.Fuzz(func(t *testing.T, payload []byte) {
		cs, err := clusterStats(map[int][]byte{1: payload, 2: shard2})
		if err != nil {
			if msg := err.Error(); !strings.Contains(msg, "shard 1") {
				t.Fatalf("refused with %q, which does not name shard 1", msg)
			}
			return
		}
		var sum machine.Snapshot
		var mets [len(cs.Metrics.Counters)]int64
		for _, ss := range cs.Shards {
			sum = machine.MergeSnapshots(sum, ss.Acct)
			for i, v := range ss.Metrics.Counters {
				mets[i] += v
			}
		}
		if sum != cs.Acct || mets != cs.Metrics.Counters {
			t.Fatalf("merged %v, %v; the shards' parts sum to %v, %v", cs.Acct, cs.Metrics.Counters, sum, mets)
		}
		for _, ss := range append(cs.Shards, machine.ShardStats{Shard: -1, Acct: cs.Acct, Metrics: cs.Metrics}) {
			f := ss.Metrics.Outside(math.MaxInt64)
			for c, v := range ss.Acct.Counters {
				if v < 0 {
					f = machine.Cnt(c).String()
				}
			}
			for _, c := range machine.Categories() {
				if ss.Acct.Get(c) < 0 {
					f = c.String()
				}
			}
			if f != "" {
				t.Fatalf("merged a negative %s (shard %d; -1 is the machine-wide total)", f, ss.Shard)
			}
			if h := ss.Metrics.Miscounted(); h != "" {
				t.Fatalf("merged %s with a count that is not the sum of its buckets (shard %d; -1 is the machine-wide total)", h, ss.Shard)
			}
		}
	})
}
