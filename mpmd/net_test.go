package mpmd_test

import (
	"errors"
	"os"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/race"
	"repro/internal/transport/netlive"
	"repro/mpmd"
)

// NetCounter is the processor object of the multi-process smoke test.
type NetCounter struct{ n int64 }

// Add accumulates; exercised cross-shard through serialized frames.
func (c *NetCounter) Add(t *mpmd.Thread, v int64) { c.n += v }

// Get returns the accumulated value.
func (c *NetCounter) Get(t *mpmd.Thread) int64 { return c.n }

// Null is the 0-word RMI the link comparison times.
func (c *NetCounter) Null(t *mpmd.Thread) {}

// Fill is the bulk-path probe: a payload travels out, a derived payload back.
func (c *NetCounter) Fill(t *mpmd.Thread, b []byte) []byte {
	out := make([]byte, len(b))
	for i, v := range b {
		out[i] = v + 1
	}
	return out
}

// TestNetMachineMultiProcess is the true multi-process smoke: a 4-node
// machine sharded 2×2, the peer shard a re-exec of this test binary (the
// parent sets the worker environment; the worker re-enters this very test
// function and builds the identical machine). Node 0 drives typed RMIs at
// every other node — nodes 2 and 3 live in the other OS process, so those
// invocations cross real sockets, cold resolution, persistent-buffer
// updates, replies and all — and every node joins a world AllReduce.
func TestNetMachineMultiProcess(t *testing.T) {
	const (
		n   = 4
		nps = 2
	)
	m, info, err := mpmd.NewNetMachine(mpmd.SPConfig(), n, mpmd.NetOptions{
		NodesPerShard: nps,
		Live:          mpmd.LiveOptions{Watchdog: 30 * time.Second},
		// Re-enter exactly this test in the worker process.
		ChildArgs: []string{"-test.run=^TestNetMachineMultiProcess$", "-test.count=1"},
	})
	if err != nil {
		t.Fatalf("NewNetMachine: %v", err)
	}
	if !info.Worker && info.Shards != 2 {
		t.Fatalf("expected 2 shards, got %d", info.Shards)
	}

	rt := mpmd.NewRuntime(m)
	if err := mpmd.RegisterClass[NetCounter](rt); err != nil {
		t.Fatalf("RegisterClass: %v", err)
	}
	// Identical setup in every process: one counter per node, same order.
	ctrs := make([]mpmd.Ref[NetCounter], n)
	for i := 0; i < n; i++ {
		ctrs[i], err = mpmd.NewObject[NetCounter](rt, i)
		if err != nil {
			t.Fatalf("NewObject(%d): %v", i, err)
		}
	}
	world, err := mpmd.WorldTeam(rt)
	if err != nil {
		t.Fatalf("WorldTeam: %v", err)
	}

	var failures atomic.Int32
	check := func(ok bool, msg string) {
		if !ok {
			failures.Add(1)
			t.Errorf("%s (shard %d)", msg, info.Shard)
		}
	}

	for i := 0; i < n; i++ {
		i := i
		rt.OnNode(i, func(th *mpmd.Thread) {
			if i == 0 {
				// Drive every peer: same-shard (node 1) and cross-shard
				// (nodes 2, 3), twice each so both the cold and the warm
				// (persistent-buffer) paths cross the wire.
				for round := 0; round < 2; round++ {
					for peer := 1; peer < n; peer++ {
						if _, err := mpmd.Invoke[int64, mpmd.Void](th, ctrs[peer], "Add", int64(10*peer)); err != nil {
							t.Errorf("Add(node %d): %v", peer, err)
						}
					}
				}
				for peer := 1; peer < n; peer++ {
					got, err := mpmd.Invoke[mpmd.Void, int64](th, ctrs[peer], "Get", mpmd.Void{})
					check(err == nil && got == int64(20*peer), "cross-shard Get mismatch")
				}
				// Bulk payload across the shard boundary.
				in := make([]byte, 2048)
				for j := range in {
					in[j] = byte(j)
				}
				out, err := mpmd.Invoke[[]byte, []byte](th, ctrs[3], "Fill", in)
				check(err == nil && len(out) == len(in), "bulk Fill failed")
				for j := range out {
					if out[j] != byte(j)+1 {
						check(false, "bulk payload corrupted across shards")
						break
					}
				}
			}
			// Every member contributes its node ID; the collective runs over
			// the same serialized wire path.
			sum, err := mpmd.AllReduce(th, world, i, mpmd.Sum)
			check(err == nil && sum == 0+1+2+3, "world AllReduce wrong")
		})
	}

	runErr := rt.Run()
	if info.Worker {
		// A worker that failed its checks (or its run) must exit non-zero so
		// the parent's child-reaping surfaces it as a Run error.
		if failures.Load() > 0 || runErr != nil {
			info.ExitIfWorker(errors.New("worker shard failed"))
		}
		info.ExitIfWorker(nil)
	}
	if runErr != nil {
		t.Fatalf("Run: %v", runErr)
	}

	// Cross-process accounting merge: the worker shard shipped its stats over
	// the real socket at quiesce; the parent's machine-wide report must carry
	// them. This is the only place the full re-exec stats path is observable.
	cs, err := m.ClusterStats()
	if err != nil {
		t.Fatalf("ClusterStats: %v", err)
	}
	if len(cs.Shards) != 2 {
		t.Fatalf("cluster report covers %d shards, want 2", len(cs.Shards))
	}
	sum := mpmd.MergeAcct(cs.Shards[0].Acct, cs.Shards[1].Acct)
	if cs.Acct != sum {
		t.Fatalf("merged counters != sum of per-shard counters:\n got %v\nwant %v", cs.Acct, sum)
	}
	// Nodes 2 and 3 ran their handlers in the other OS process: the worker's
	// contribution must be visible in its shard row and push the merged total
	// strictly past what this process observed locally.
	if cs.Shards[1].Acct.Counters[mpmd.CntHandlersRun] == 0 {
		t.Fatal("worker shard reported zero handler runs across the re-exec boundary")
	}
	local := m.LocalStats().Acct.Counters[mpmd.CntHandlersRun]
	if merged := cs.Acct.Counters[mpmd.CntHandlersRun]; merged <= local {
		t.Fatalf("merged handler count %d <= parent-local %d: worker contribution missing", merged, local)
	}
	if cs.Acct.Counters[mpmd.CntRMI] == 0 || cs.Acct.Counters[mpmd.CntMsgBulk] == 0 {
		t.Fatal("merged report missing RMI or bulk traffic the test provably drove")
	}
	// The end-of-run counts merge across the process boundary too: the run
	// has ended, so on each shard every thread made runnable has blocked or
	// exited since.
	for _, ss := range cs.Shards {
		if rd, pk := ss.Acct.Counters[machine.CntThreadReadied], ss.Acct.Counters[machine.CntThreadParked]; rd != pk || rd == 0 {
			t.Errorf("shard %d: thread.readied %d, thread.parked %d at the end of the run; want them equal and non-zero", ss.Shard, rd, pk)
		}
	}
}

// TestNetMachineOneShard: the zero NetOptions build a machine of this
// process alone, on the live backend, and a two-node program runs on it;
// NetInfo says so, and ExitIfWorker returns.
func TestNetMachineOneShard(t *testing.T) {
	m, info, err := mpmd.NewNetMachine(mpmd.SPConfig(), 2, mpmd.NetOptions{})
	if err != nil {
		t.Fatalf("NewNetMachine: %v", err)
	}
	if info.Shards != 1 || info.Shard != 0 || info.Worker || !slices.Equal(info.LocalNodes, []int{0, 1}) {
		t.Fatalf("NetInfo = %+v, want one shard, shard 0, no worker, nodes 0 and 1 local", *info)
	}
	if name := m.Backend().Name(); name != "live" {
		t.Fatalf("backend %q, want live", name)
	}
	rt := mpmd.NewRuntime(m)
	if err := mpmd.RegisterClass[NetCounter](rt); err != nil {
		t.Fatalf("RegisterClass: %v", err)
	}
	ctr, err := mpmd.NewObject[NetCounter](rt, 1)
	if err != nil {
		t.Fatalf("NewObject: %v", err)
	}
	var got int64
	rt.OnNode(0, func(th *mpmd.Thread) {
		if _, err := mpmd.Invoke[int64, mpmd.Void](th, ctr, "Add", int64(5)); err != nil {
			t.Errorf("Add: %v", err)
		}
		got, _ = mpmd.Invoke[mpmd.Void, int64](th, ctr, "Get", mpmd.Void{})
	})
	err = rt.Run()
	info.ExitIfWorker(err)
	if err != nil || got != 5 {
		t.Fatalf("Run: %v; node 1's counter read %d, want 5", err, got)
	}
}

// TestShmLinkBeatsSocket is the reason the ring link exists, held as a
// same-run ratio: 16 nodes, 8 per shard, each of the 8 clients in this
// process drives warm null RMIs at its paired server in a re-exec'd worker —
// once over the shared-memory rings, once over the socket link — and the
// rings must sustain the higher rate. Eight pairs, not one: with one or two
// pairs sharing a CPU the two links read within 4 % of each other, at eight
// the rings lead by 1.5× or more. The host's speed drifts between the two
// waves, so the comparison gets three attempts and fails only if none shows
// it.
//
// Each wave ends with a byte-checked 1 KiB call per pair, which on the socket
// wave is the one place a bulk frame crosses a real process boundary on that
// link.
func TestShmLinkBeatsSocket(t *testing.T) {
	for attempt := 1; attempt <= 3; attempt++ {
		// A worker never returns from its first wave: it follows its
		// parent's rings — it attaches them when the parent made them, and
		// keeps the socket when it made none — and exits when the wave's Run
		// does.
		shm := nullRMIRate(t, false)
		sock := nullRMIRate(t, true)
		t.Logf("attempt %d: shm %.0f ops/s, socket %.0f ops/s (%.2fx)", attempt, shm, sock, shm/sock)
		// Under -race the detector's instrumentation sets both rates (6–9k
		// ops/s either way); the waves have still run their byte checks.
		if shm > sock || race.Enabled {
			return
		}
	}
	t.Fatal("the shared-memory rings did not beat the socket link on sustained null RMI/s in any of three attempts")
}

// nullRMIRate builds one 16-node, 2-process machine on the chosen link and
// returns the clients' aggregate rate of timed null RMIs.
func nullRMIRate(t *testing.T, disableShm bool) float64 {
	const (
		n      = 16
		pairs  = n / 2
		warmup = 16
		timed  = 200
	)
	be, err := netlive.New(n, netlive.Options{
		NodesPerShard: pairs,
		DisableShm:    disableShm,
		Live:          mpmd.LiveOptions{Watchdog: 30 * time.Second},
		ChildArgs:     []string{"-test.run=^TestShmLinkBeatsSocket$", "-test.count=1"},
	})
	if err != nil {
		t.Fatalf("netlive.New: %v", err)
	}
	worker := be.Shard() != 0
	if !worker && be.ShmActive() == disableShm {
		t.Errorf("wave with DisableShm=%v runs with ShmActive=%v", disableShm, be.ShmActive())
	}
	rt := mpmd.NewRuntime(mpmd.NewMachineWithBackend(mpmd.SPConfig(), n, be))
	if err := mpmd.RegisterClass[NetCounter](rt); err != nil {
		t.Fatalf("RegisterClass: %v", err)
	}
	bar := rt.NewBarrier(0, pairs)
	var elapsed time.Duration
	for i := 0; i < pairs; i++ {
		srv, err := mpmd.NewObject[NetCounter](rt, pairs+i)
		if err != nil {
			t.Fatalf("NewObject(%d): %v", pairs+i, err)
		}
		rt.OnNode(i, func(th *mpmd.Thread) {
			null := func(k int) {
				for ; k > 0; k-- {
					if _, err := mpmd.Invoke[mpmd.Void, mpmd.Void](th, srv, "Null", mpmd.Void{}); err != nil {
						t.Errorf("Null(node %d): %v", pairs+i, err)
						return
					}
				}
			}
			null(warmup)
			bar.Arrive(th)
			start := time.Now()
			null(timed)
			bar.Arrive(th)
			if i == 0 {
				elapsed = time.Since(start)
			}
			in := make([]byte, 1024)
			for j := range in {
				in[j] = byte(j + i)
			}
			out, err := mpmd.Invoke[[]byte, []byte](th, srv, "Fill", in)
			if err != nil || len(out) != len(in) {
				t.Errorf("Fill(node %d): %d bytes, err %v", pairs+i, len(out), err)
				return
			}
			for j := range out {
				if out[j] != in[j]+1 {
					t.Errorf("Fill(node %d): byte %d is %d, want %d", pairs+i, j, out[j], in[j]+1)
					return
				}
			}
		})
	}
	runErr := rt.Run()
	if worker {
		if runErr != nil || t.Failed() {
			os.Exit(1)
		}
		os.Exit(0)
	}
	if runErr != nil {
		t.Fatalf("Run (DisableShm=%v): %v", disableShm, runErr)
	}
	if t.Failed() {
		t.FailNow()
	}
	return float64(pairs*timed) / elapsed.Seconds()
}
