package conformance

import (
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/transport/live"
	"repro/internal/transport/netlive"
)

// TestSimnet runs the conformance suite on the calibrated discrete-event
// backend (the default machine.New path).
func TestSimnet(t *testing.T) {
	Run(t, func(cfg machine.Config, n int) *machine.Machine {
		return machine.New(cfg, n)
	})
}

// TestLive runs the identical suite on real goroutines with wall-clock
// timing. A short watchdog turns a lost-wakeup bug into a fast failure
// instead of a hung test.
func TestLive(t *testing.T) {
	Run(t, func(cfg machine.Config, n int) *machine.Machine {
		return machine.NewWithBackend(cfg, n, live.New(n, live.Options{Watchdog: 20 * time.Second}))
	})
}

// netSharded runs the suite over the two-shard netlive configuration: both
// shards as co-resident backends inside the test process, shard 0 first (it
// creates the rings and the rendezvous sockets), the worker shard attaching.
// A one-node machine is one address space and builds on live, as
// mpmd.NewNetMachine builds it (no case of the suite has one node today).
// Afterwards every backend's counters must show that its link carried all
// its packets on the one path the configuration fixed.
func netSharded(t *testing.T, mod func(*netlive.Options)) {
	var bes []*netlive.Backend
	lv := live.Options{Watchdog: 20 * time.Second}
	RunSharded(t, func(cfg machine.Config, n int) []*machine.Machine {
		if n == 1 {
			return []*machine.Machine{machine.NewWithBackend(cfg, n, live.New(n, lv))}
		}
		dir := t.TempDir()
		ms := make([]*machine.Machine, 2)
		for s := range ms {
			sh := s
			opts := netlive.Options{NodesPerShard: (n + 1) / 2, Shard: &sh, Dir: dir, Live: lv}
			mod(&opts)
			be, err := netlive.New(n, opts)
			if err != nil {
				t.Fatalf("netlive.New shard %d: %v", sh, err)
			}
			if be.ShmActive() == opts.DisableShm {
				t.Fatalf("shard %d: ShmActive = %v with DisableShm %v", sh, be.ShmActive(), opts.DisableShm)
			}
			bes = append(bes, be)
			ms[s] = machine.NewWithBackend(cfg, n, be)
		}
		return ms
	})
	for _, be := range bes {
		ctr := be.MetricsSnapshot().Counter
		// Besides packets a socket carries doorbells, a runtime's end-of-run
		// waves and, between a worker and the parent, one all-done frame out of
		// the parent, and out of the worker the doorbell that opens its link
		// to the parent and one stats frame.
		out := ctr(metrics.CtrFramesOut) - ctr(metrics.CtrShmDoorbells) - ctr(metrics.CtrWaveFrames)
		if be.ShmActive() && out > 1+int64(min(be.Shard(), 1)) {
			t.Errorf("shard %d: ring links, yet %d socket frames besides doorbells and waves: packets took the socket", be.Shard(), out)
		}
		if !be.ShmActive() && ctr(metrics.CtrShmFramesOut)+ctr(metrics.CtrShmFramesInProc)+ctr(metrics.CtrShmFramesInReader)+ctr(metrics.CtrShmDoorbells) != 0 {
			t.Errorf("shard %d: socket links, yet ring counters moved", be.Shard())
		}
		if n := ctr(metrics.CtrLinkDropped); n != 0 {
			t.Errorf("shard %d: %d frames dropped on a healthy link", be.Shard(), n)
		}
	}
}

// TestNetShmSharded runs the full suite across two co-resident netlive
// shards whose links are shared-memory rings: every cross-shard packet in the
// suite rides an mmap'd SPSC ring instead of a socket. The rings are forced
// down to 8 KiB so the suite runs over wraps and full-ring waits, and
// MixedSizes over fragmented packets (netlive's TestShmFragments pins that
// packets of those sizes do fragment).
func TestNetShmSharded(t *testing.T) {
	netSharded(t, func(o *netlive.Options) { o.ShmRingBytes = 8 << 10 })
}

// TestNetSocketSharded runs the full suite over the other link
// implementation: the same two shards with the rings off, every cross-shard
// packet through the per-peer socket writer.
func TestNetSocketSharded(t *testing.T) {
	netSharded(t, func(o *netlive.Options) { o.DisableShm = true })
}
