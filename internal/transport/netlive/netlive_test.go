package netlive

import (
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/am"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/threads"
	"repro/internal/transport"
	"repro/internal/transport/live"
)

// shmFramesIn is the ring frames a shard consumed: its idle procs' share
// and its reader's.
func shmFramesIn(s metrics.Snapshot) int64 {
	return s.Counter(metrics.CtrShmFramesInProc) + s.Counter(metrics.CtrShmFramesInReader)
}

// shardRig is one shard's view of the machine: its own Backend, machine, AM
// net, and schedulers for the local nodes only — exactly what one process of
// a multi-process run builds, here constructed twice in one test process so
// the race detector sees the whole serialized path.
type shardRig struct {
	be     *Backend
	m      *machine.Machine
	net    *am.Net
	scheds map[int]*threads.Scheduler
}

func newShardRig(t *testing.T, n, nps, shard int, dir string, mods ...func(*Options)) *shardRig {
	t.Helper()
	s := shard
	opts := Options{
		NodesPerShard: nps,
		Shard:         &s,
		Dir:           dir,
		Live:          live.Options{Watchdog: 20 * time.Second},
	}
	for _, mod := range mods {
		mod(&opts)
	}
	be, err := New(n, opts)
	if err != nil {
		t.Fatalf("New shard %d: %v", shard, err)
	}
	r := &shardRig{be: be, m: machine.NewWithBackend(machine.SP1997(), n, be)}
	r.net = am.NewNet(r.m, am.Profile{})
	r.scheds = make(map[int]*threads.Scheduler)
	for _, i := range be.LocalNodes() {
		sc := threads.NewScheduler(r.m.Node(i))
		r.net.Endpoint(i).Attach(sc)
		r.scheds[i] = sc
	}
	return r
}

// TestTopology pins the shard arithmetic on a lone worker shard, which
// finds no rings of its parent's and so takes its links to the socket at once.
func TestTopology(t *testing.T) {
	s := 1
	start := time.Now()
	be, err := New(5, Options{NodesPerShard: 2, Shard: &s, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer be.shutdownSockets()
	if d := time.Since(start); d > time.Second || be.ShmActive() {
		t.Fatalf("New took %v, ShmActive = %v: want the socket links at once", d, be.ShmActive())
	}
	if be.NumShards() != 3 || be.Shard() != 1 {
		t.Fatalf("shards=%d shard=%d", be.NumShards(), be.Shard())
	}
	if be.IsLocal(1) || !be.IsLocal(2) || !be.IsLocal(3) || be.IsLocal(4) {
		t.Fatalf("locality wrong: %v", be.LocalNodes())
	}
	if got := be.LocalNodes(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("LocalNodes = %v", got)
	}
}

// TestOneShardRefused: a layout of one shard (NodesPerShard zero or >= n) is
// one address space, which runs on live; New refuses it with an error naming
// live.New, and leaves nothing behind: no listener, no rendezvous directory.
func TestOneShardRefused(t *testing.T) {
	for _, nps := range []int{0, 2, 3} {
		tmp, dir := t.TempDir(), t.TempDir()
		t.Setenv("TMPDIR", tmp)
		for _, opts := range []Options{{NodesPerShard: nps}, {NodesPerShard: nps, Dir: dir}} {
			be, err := New(2, opts)
			if be != nil || err == nil || !strings.Contains(err.Error(), "live.New") {
				t.Fatalf("New(2, %+v) = %v, %v; want no backend and an error naming live.New", opts, be, err)
			}
		}
		for _, d := range []string{tmp, dir} {
			if left, err := os.ReadDir(d); err != nil || len(left) != 0 {
				t.Fatalf("NodesPerShard %d: New left %v in %s (%v)", nps, left, d, err)
			}
		}
	}
}

// TestTwoShardsInProcess runs a 2-shard × 2-nodes-per-shard machine as two
// backends inside this test process: node 0 (shard 0) blasts node 2
// (shard 1) with ordered shorts and patterned bulk payloads; node 2's
// handler verifies and acks. Both transports run under -race, without the
// re-exec harness: the shm subtest exercises the mmap'd ring path end to
// end, the socket subtest pins the DisableShm fallback.
func TestTwoShardsInProcess(t *testing.T) {
	t.Run("shm", func(t *testing.T) { twoShardsTraffic(t, true) })
	t.Run("socket", func(t *testing.T) {
		twoShardsTraffic(t, false, func(o *Options) { o.DisableShm = true })
	})
}

func twoShardsTraffic(t *testing.T, wantShm bool, mods ...func(*Options)) {
	const (
		n     = 4
		nps   = 2
		k     = 100
		bytes = 1 << 10
	)
	dir := t.TempDir()
	a := newShardRig(t, n, nps, 0, dir, mods...)
	b := newShardRig(t, n, nps, 1, dir, mods...)
	if a.be.ShmActive() != wantShm || b.be.ShmActive() != wantShm {
		t.Fatalf("ShmActive = %v/%v, want %v", a.be.ShmActive(), b.be.ShmActive(), wantShm)
	}

	pattern := func(i, j int) byte { return byte(i*13 + j*7) }

	// Shard 1: node 2 receives k shorts (ordered) and k bulks (patterned),
	// acking each bulk back to node 0.
	var (
		gotShort []uint64
		gotBulk  int
		arrived  am.Count // shorts and bulks
		bad      string
	)
	var hAck am.HandlerID
	hShort := b.net.Register("t.short", func(th *threads.Thread, m am.Msg) {
		gotShort = append(gotShort, m.A[0])
		arrived.Advance(th, 1)
	})
	hBulk := b.net.Register("t.bulk", func(th *threads.Thread, m am.Msg) {
		i := int(m.A[0])
		if len(m.Payload) != bytes {
			bad = "bad payload length"
		}
		for j, by := range m.Payload {
			if by != pattern(i, j) {
				bad = "payload corrupted in flight"
				break
			}
		}
		gotBulk++
		arrived.Advance(th, 1)
		b.net.Endpoint(2).Request(th, 0, hAck, [4]uint64{uint64(i)}, nil, false)
	})
	// Shard 0: the ack handler registers on shard 0's net under the same ID
	// sequence — identical registration order across shards, as the SPMD
	// launch model requires. Register all three on both nets.
	_ = a.net.Register("t.short", func(*threads.Thread, am.Msg) {})
	_ = a.net.Register("t.bulk", func(*threads.Thread, am.Msg) {})
	var acks am.Count
	hAck = a.net.Register("t.ack", func(th *threads.Thread, m am.Msg) { acks.Advance(th, 1) })
	_ = b.net.Register("t.ack", func(*threads.Thread, am.Msg) {})

	a.scheds[0].Start("sender", func(th *threads.Thread) {
		ep := a.net.Endpoint(0)
		buf := make([]byte, bytes)
		for i := 0; i < k; i++ {
			ep.Request(th, 2, hShort, [4]uint64{uint64(i)}, nil, false)
			for j := range buf {
				buf[j] = pattern(i, j)
			}
			ep.Request(th, 2, hBulk, [4]uint64{uint64(i)}, buf, true)
			// Clobber: the wire path promised copy-at-send semantics.
			for j := range buf {
				buf[j] = 0xEE
			}
		}
		ep.Await(th, &acks, k)
	})
	b.scheds[2].Start("receiver", func(th *threads.Thread) {
		b.net.Endpoint(2).Await(th, &arrived, 2*k)
	})

	var wg sync.WaitGroup
	var errA, errB error
	wg.Add(2)
	go func() { defer wg.Done(); errA = a.m.Run() }()
	go func() { defer wg.Done(); errB = b.m.Run() }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("Run: shard0=%v shard1=%v", errA, errB)
	}
	if bad != "" {
		t.Fatal(bad)
	}
	if len(gotShort) != k || gotBulk != k || acks.Value() != k {
		t.Fatalf("short=%d bulk=%d acks=%d, want %d each", len(gotShort), gotBulk, acks.Value(), k)
	}
	for i, v := range gotShort {
		if v != uint64(i) {
			t.Fatalf("short %d carried %d: cross-shard delivery reordered", i, v)
		}
	}
	// The data frames traveled the transport the configuration promised.
	snapA, snapB := a.be.MetricsSnapshot(), b.be.MetricsSnapshot()
	if wantShm {
		if snapA.Counter(metrics.CtrShmFramesOut) == 0 || shmFramesIn(snapB) == 0 {
			t.Fatalf("shm enabled but rings carried no frames: out=%d in=%d",
				snapA.Counter(metrics.CtrShmFramesOut), shmFramesIn(snapB))
		}
	} else {
		if snapA.Counter(metrics.CtrShmFramesOut) != 0 || shmFramesIn(snapB) != 0 {
			t.Fatal("shm disabled but ring counters moved")
		}
	}
}

// TestShmRingWraparoundAliasing forces the ring through many wraps and
// full-ring producer waits: an 8 KiB ring carrying 200 patterned 1 KiB bulks
// holds only a handful of records at a time. The receiving handler scans its
// payload twice with a yield between the passes — the payload slice points
// directly into the mapped ring, so if the producer could reuse a slot before
// the handler returned (head published too early), the second pass would see
// the next frame's bytes.
func TestShmRingWraparoundAliasing(t *testing.T) {
	const (
		n     = 4
		nps   = 2
		k     = 200
		bytes = 1 << 10
	)
	small := func(o *Options) { o.ShmRingBytes = 8 << 10 }
	dir := t.TempDir()
	a := newShardRig(t, n, nps, 0, dir, small)
	b := newShardRig(t, n, nps, 1, dir, small)
	if !a.be.ShmActive() || !b.be.ShmActive() {
		t.Fatal("shm not active")
	}

	pattern := func(i, j int) byte { return byte(i*31 + j*11) }
	var hAck am.HandlerID
	var got am.Count
	bad := ""
	hBulk := b.net.Register("w.bulk", func(th *threads.Thread, m am.Msg) {
		i := int(m.A[0])
		sum1 := 0
		for j, by := range m.Payload {
			if by != pattern(i, j) {
				bad = "payload corrupted in flight"
			}
			sum1 += int(by)
		}
		runtime.Gosched() // give a racing producer every chance to clobber the slot
		sum2 := 0
		for _, by := range m.Payload {
			sum2 += int(by)
		}
		if sum1 != sum2 {
			bad = "ring slot reused under a running handler (aliasing)"
		}
		got.Advance(th, 1)
		b.net.Endpoint(2).Request(th, 0, hAck, [4]uint64{uint64(i)}, nil, false)
	})
	_ = a.net.Register("w.bulk", func(*threads.Thread, am.Msg) {})
	var acks am.Count
	hAck = a.net.Register("w.ack", func(th *threads.Thread, _ am.Msg) { acks.Advance(th, 1) })
	_ = b.net.Register("w.ack", func(*threads.Thread, am.Msg) {})

	a.scheds[0].Start("sender", func(th *threads.Thread) {
		ep := a.net.Endpoint(0)
		buf := make([]byte, bytes)
		for i := 0; i < k; i++ {
			for j := range buf {
				buf[j] = pattern(i, j)
			}
			ep.Request(th, 2, hBulk, [4]uint64{uint64(i)}, buf, true)
		}
		ep.Await(th, &acks, k)
	})
	b.scheds[2].Start("receiver", func(th *threads.Thread) {
		b.net.Endpoint(2).Await(th, &got, k)
	})

	var wg sync.WaitGroup
	var errA, errB error
	wg.Add(2)
	go func() { defer wg.Done(); errA = a.m.Run() }()
	go func() { defer wg.Done(); errB = b.m.Run() }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("Run: shard0=%v shard1=%v", errA, errB)
	}
	if bad != "" {
		t.Fatal(bad)
	}
	if got.Value() != k || acks.Value() != k {
		t.Fatalf("bulks=%d acks=%d, want %d each", got.Value(), acks.Value(), k)
	}
	// k records through an 8 KiB ring means the tail lapped it many times.
	if out := a.be.MetricsSnapshot().Counter(metrics.CtrShmFramesOut); out < k {
		t.Fatalf("shm frames out = %d, want >= %d", out, k)
	}
}

// ringMappings counts this process's live shm ring mappings (linux: parsed
// out of /proc/self/maps; -1 elsewhere, callers skip).
func ringMappings(t *testing.T) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return -1
	}
	count := 0
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.Contains(line, "ring-") && strings.Contains(line, ".shm") {
			count++
		}
	}
	return count
}

// TestShmStalledTeardownNoLeaks: a run that stalls (the watchdog aborts it,
// Run returns a StallError) must still tear the ring plane down — consumer
// goroutines exit and every ring mapping is unmapped. Only the stuck proc
// itself may outlive the run (the live backend under it owns no goroutine of
// its own).
func TestShmStalledTeardownNoLeaks(t *testing.T) {
	fast := func(o *Options) { o.Live.Watchdog = 300 * time.Millisecond }
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	a := newShardRig(t, 4, 2, 0, dir, fast)
	b := newShardRig(t, 4, 2, 1, dir, fast)
	if !a.be.ShmActive() || !b.be.ShmActive() {
		t.Fatal("shm not active")
	}
	mapped := ringMappings(t)
	if mapped == 0 {
		t.Fatal("no ring mappings after attach")
	}

	a.be.Go(0, "stuck", func(p transport.Proc) { p.Park() }) // parked forever
	var wg sync.WaitGroup
	var errA, errB error
	wg.Add(2)
	go func() { defer wg.Done(); errA = a.m.Run() }()
	go func() { defer wg.Done(); errB = b.m.Run() }()
	wg.Wait()
	if errA == nil {
		t.Fatal("stalled shard 0 run returned nil, want StallError")
	}
	_ = errB // the worker shard may or may not surface the parent's stall

	if mapped = ringMappings(t); mapped > 0 {
		t.Fatalf("%d ring mappings survived teardown", mapped)
	}
	// The shm consumers, peer writers, and readers must all be gone. Two
	// goroutines legitimately outlive a stalled run, both pre-dating the shm
	// plane: the stuck proc itself and live.Run's completion waiter, which
	// blocks on the proc WaitGroup the stuck proc never leaves.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if g := runtime.NumGoroutine(); g <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	stacks := make([]byte, 1<<20)
	stacks = stacks[:runtime.Stack(stacks, true)]
	t.Fatalf("goroutines before=%d after stalled teardown=%d: shm plane leaked\n%s",
		before, runtime.NumGoroutine(), stacks)
}

// TestTwoShardsStats drives cross-shard traffic through two in-process
// backends and verifies the kStats control plane end to end under -race: at
// quiesce the worker shard serializes its stats and ships them over the real
// socket, the parent's ClusterStats merges them, and the merged counters
// equal the sum of the per-shard reports — with the worker's handler activity
// visible only through its kStats payload, never fabricated locally.
func TestTwoShardsStats(t *testing.T) {
	const (
		n   = 4
		nps = 2
		k   = 60
	)
	dir := t.TempDir()
	a := newShardRig(t, n, nps, 0, dir)
	b := newShardRig(t, n, nps, 1, dir)

	// Node 0 (shard 0) sends k shorts to node 2 (shard 1); node 2 acks each.
	var hAck am.HandlerID
	var gotPing am.Count
	hPing := b.net.Register("s.ping", func(th *threads.Thread, m am.Msg) {
		gotPing.Advance(th, 1)
		b.net.Endpoint(2).Request(th, 0, hAck, m.A, nil, false)
	})
	_ = a.net.Register("s.ping", func(*threads.Thread, am.Msg) {})
	var acks am.Count
	hAck = a.net.Register("s.ack", func(th *threads.Thread, _ am.Msg) { acks.Advance(th, 1) })
	_ = b.net.Register("s.ack", func(*threads.Thread, am.Msg) {})

	a.scheds[0].Start("sender", func(th *threads.Thread) {
		ep := a.net.Endpoint(0)
		for i := 0; i < k; i++ {
			ep.Request(th, 2, hPing, [4]uint64{uint64(i)}, nil, false)
		}
		ep.Await(th, &acks, k)
	})
	b.scheds[2].Start("receiver", func(th *threads.Thread) {
		b.net.Endpoint(2).Await(th, &gotPing, k)
	})

	var wg sync.WaitGroup
	var errA, errB error
	wg.Add(2)
	go func() { defer wg.Done(); errA = a.m.Run() }()
	go func() { defer wg.Done(); errB = b.m.Run() }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("Run: shard0=%v shard1=%v", errA, errB)
	}

	if _, err := b.m.ClusterStats(); err == nil {
		t.Fatal("ClusterStats on the worker shard should refuse (parent only)")
	}
	cs, err := a.m.ClusterStats()
	if err != nil {
		t.Fatalf("ClusterStats on parent: %v", err)
	}
	if len(cs.Shards) != 2 || cs.Shards[0].Shard != 0 || cs.Shards[1].Shard != 1 {
		t.Fatalf("shards = %+v, want [0 1]", cs.Shards)
	}
	// The worker's handler ran k times in shard 1's address space; the merged
	// total must carry it, and it must come from the kStats payload (shard 0
	// never saw those handler runs locally).
	if got := cs.Shards[1].Acct.Counters[machine.CntHandlersRun]; got < k {
		t.Fatalf("shard 1 reported %d handler runs over the wire, want >= %d", got, k)
	}
	sum := machine.MergeSnapshots(cs.Shards[0].Acct, cs.Shards[1].Acct)
	if cs.Acct != sum {
		t.Fatalf("merged acct != shard0 + shard1:\n got %v\nwant %v", cs.Acct, sum)
	}
	if local := a.m.LocalStats().Acct.Counters[machine.CntHandlersRun]; cs.Acct.Counters[machine.CntHandlersRun] <= local {
		t.Fatal("merged handler count does not exceed the parent-local count: worker contribution missing")
	}
	// Both shards moved real frames; the merged wall-clock metrics must agree
	// with the per-shard reports and show socket traffic on both sides.
	if cs.Metrics != metrics.Merge(cs.Shards[0].Metrics, cs.Shards[1].Metrics) {
		t.Fatal("merged metrics != merge of shard metrics")
	}
	// The data frames (pings one way, acks the other) rode the shm rings on
	// both sides, and the worker's counters reached the parent through the
	// kStats payload — the wire told us, not local bookkeeping.
	for i, ss := range cs.Shards {
		if ss.Metrics.Counter(metrics.CtrShmFramesOut) == 0 || shmFramesIn(ss.Metrics) == 0 {
			t.Fatalf("shard %d reported no shm data frames: out=%d in=%d", i,
				ss.Metrics.Counter(metrics.CtrShmFramesOut), shmFramesIn(ss.Metrics))
		}
	}
	// The control plane still crosses the socket: the worker's kStats frame
	// is socket-carried, so the parent's post-run snapshot must count it.
	// (Parent-outbound socket frames — doorbells — are opportunistic and not
	// asserted.)
	if cs.Shards[0].Metrics.Counter(metrics.CtrFramesIn) == 0 {
		t.Fatal("parent counted no inbound socket frames; kStats must cross the socket")
	}
}
