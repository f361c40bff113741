package machine

import (
	"encoding/json"
	"strings"
	"testing"

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

func (s *parentStub) Quiesce(func() ([4]uint64, bool), func()) func()                { return nil }
func (s *parentStub) SendRemote(int, int, int, transport.FrameMarshaler)             {}
func (s *parentStub) SetRemoteHandler(func(src, dst, size int, payload []byte) bool) {}
func (s *parentStub) SetStatsProvider(func() []byte)                                 {}
func (s *parentStub) PeerStats() map[int][]byte                                      { return s.peers }

// TestClusterStatsRefusesMisfiledPayloads: a worker's payload is merged only
// if it is that shard's, of nodes no other shard reports, and the shards
// together report every node; anything else would make up the machine-wide
// totals.
func TestClusterStatsRefusesMisfiledPayloads(t *testing.T) {
	payload := func(shard int, nodes ...int) []byte {
		b, err := json.Marshal(ShardStats{Shard: shard, Nodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
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
		{"another shard's node", map[int][]byte{1: payload(1, 2, 3, 4), 2: payload(2, 4, 5)}, "from shard 2 names node 4, not its own"},
		{"a node short", map[int][]byte{1: payload(1, 2), 2: payload(2, 4, 5)}, "no shard's stats payload names node 3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewWithBackend(SP1997(), 6, &parentStub{Backend: live.New(6, live.Options{}), peers: tc.peers})
			cs, err := m.ClusterStats()
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
