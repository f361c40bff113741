// Package netlive is the sharded multi-process transport backend: the
// machine's n nodes are partitioned into two or more shards of NodesPerShard
// consecutive nodes, each shard living in its own OS process. Packets between
// shards move the same Active-Messages wire format the in-memory backends
// move, over shared-memory rings the parent makes, and a Unix-domain socket
// per shard pair carries the control frames — the 2026 analogue of the
// paper's SP network, with the runtime specialized to the substrate exactly as
// the paper argues it must be. A machine of one shard is one address space:
// it runs on the live backend (live.New), and New refuses it.
//
// # Topology and roles
//
// Shard 0 is the parent. Peer shards are re-exec'd children: the parent
// launches its own binary again with MPMD_NETLIVE_SHARD set — the SPMD launch
// model, every process runs the identical program and therefore builds
// identical stub registries, object tables, and buffer managers. Each shard
// listens on <dir>/shard-<i>.sock in the parent's rendezvous directory;
// connections are dialed on first send, with retry while the peer comes up;
// a worker dials its parent when Run starts.
//
// Within a shard, execution delegates to the live backend unchanged: procs
// are goroutines, one CPU mutex per node, wall-clock time.
//
// # One ordered link per peer shard
//
// The machine layer hands every cross-shard packet to Sharded.SendRemote,
// which puts it on the link (peer) to the shard owning the destination. A
// link carries its packets on exactly one path, chosen when the backend is
// built and never per message, so per-sender FIFO to a destination holds end
// to end whatever the frame sizes.
//
// The parent decides the path. By default (one machine, many processes) it
// is an mmap'd single-producer single-consumer ring per ordered shard pair,
// created by the parent before spawning; a worker attaches every ring of its
// own at New when its parent's ring files exist and keeps the socket when
// they do not. The sending proc marshals the packet — src, dst, size, then
// am.Msg's wire codec — directly into a ring slot and the receiving shard
// consumes it in place: zero syscalls, zero copies beyond the marshal itself
// (see shmring.go, which also says who consumes a ring, and DESIGN.md). The
// socket then carries only control frames — the end-of-run waves, stats and
// the rings' doorbells — and few of them are ever in flight (DESIGN.md states
// the bound). With the shared-memory plane off (Options.DisableShm on the
// parent, a non-unix host) the parent makes no rings and the packets ride the
// socket too: each is encoded into a pooled wire.Buf and queued on the peer's
// frame queue; one writer goroutine owning the connection drains it in order
// and releases the buffers, so a warm send allocates nothing beyond what the
// socket write itself costs, and reader goroutines decode arriving frames
// into pooled buffers.
//
// Either way the packet reaches the machine's remote-arrival handler, which
// enqueues into the destination node's (thread-safe) inbox and notifies it
// by index through the live backend. A link that fails ends the run: its one
// error, naming the shard, closes the inner live backend's latch
// (live.Backend.Abort). So do malformed bytes from the peer (a frame that
// does not parse, a packet too short for the messaging layer's header or from
// a node outside the link's peer shard, an unknown frame kind, a packet on
// the socket of a ring link), a ring consumer gone under a waiting producer,
// a link with the parent that ends early (linkEnded) and a worker process
// that exits early. Frames for a failed or closed link are dropped and
// counted (net.link.dropped). Nothing gives up on a clock but the watchdog.
//
// # Lifecycle
//
// The run ends when its work does (Sharded.Quiesce): the parent sums the
// shards' four counts in waves — its own once its nodes are idle, then each
// worker's, probed and answered in kWave frames once that worker's nodes are
// idle — and after two consecutive waves read the same balanced sums it
// broadcasts kAllDone, until which a pure-server shard keeps serving. Run
// returns when the local procs have finished or the run was aborted (Run
// below).
package netlive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/transport/live"
	"repro/internal/wire"
)

// Environment variables of the re-exec harness: a process finding them set
// is a worker.
const (
	EnvShard = "MPMD_NETLIVE_SHARD"
	EnvDir   = "MPMD_NETLIVE_DIR"
	EnvNodes = "MPMD_NETLIVE_NODES"
	EnvNPS   = "MPMD_NETLIVE_NPS"
)

// Options tune the net backend.
type Options struct {
	// NodesPerShard is how many consecutive nodes share one process, from 1
	// to n-1: the machine spans two or more shards.
	NodesPerShard int
	// Live tunes the in-shard execution backend.
	Live live.Options
	// Shard fixes this backend's shard index explicitly (tests that build
	// several shards inside one process, the parent first); a parent built so
	// spawns no children. Nil selects the role automatically:
	// MPMD_NETLIVE_SHARD when set (a re-exec'd child), else shard 0.
	Shard *int
	// Dir is the rendezvous directory holding the per-shard sockets and
	// rings. Empty means MPMD_NETLIVE_DIR, or a fresh temp directory on the
	// parent.
	Dir string
	// ChildArgs overrides the argument vector for re-exec'd children
	// (default: this process's own arguments). Tests use it to re-enter a
	// single test function.
	ChildArgs []string
	// DisableShm stops the parent from making the shared-memory rings: every
	// link carries its data frames on the socket writer. Read by the parent
	// only; a worker uses the rings exactly when its parent made them.
	DisableShm bool
	// ShmRingBytes sizes each directed ring's data area in bytes: zero means
	// 1 MiB, and values are clamped to at least 4 KiB and rounded up to a
	// multiple of 8. Read by the parent only, as the rings' files carry it.
	ShmRingBytes int
}

// frameKind is the frame discriminator on the wire. readLoop's switch must
// dispatch every kind minBody declares and reject others in its default
// clause, as TestHostileSocketFrames checks with one frame of each.
type frameKind byte

// frame kinds on the wire.
const (
	kPacket   = frameKind(1) // u32 src, u32 dst, u32 size, payload
	kWave     = frameKind(2) // u32 shard, 4 x u64 counts (worker -> parent: an answer; parent -> worker: a probe, counts unread)
	kAllDone  = frameKind(3) // empty (parent -> worker: the run is over)
	kStats    = frameKind(4) // u32 shard, JSON machine.ShardStats (worker -> parent)
	kDoorbell = frameKind(5) // u32 shard (sender: wake your parked consumer of my outbound ring)
)

// packetHdrLen is the header of a packet body: u32 src, dst, size. The AM
// payload follows; both links carry exactly these bytes.
const packetHdrLen = 12

// maxFrameBytes bounds the body of one frame on either link. A length read
// from a socket or a ring came from another process: nothing is allocated or
// indexed on its word before it has been held against this.
const maxFrameBytes = 64 << 20

// minBody is the shortest legal body of each frame kind; the dispatchers
// index no further without checking.
var minBody = [...]int{kPacket: packetHdrLen, kWave: 4 + 8*4, kAllDone: 0, kStats: 4, kDoorbell: 4}

// Backend is the sharded multi-process transport. Construct with New.
type Backend struct {
	inner *live.Backend

	n, nps, shards, shard int
	lo, hi                int // local node range [lo, hi)
	dir                   string
	ownsDir               bool
	opts                  Options

	ln       net.Listener
	peers    []*peer // indexed by shard; nil for self
	children []*exec.Cmd
	exited   chan struct{} // a token per child reaped

	// shm is the shared-memory ring plane (nil when the parent made no rings,
	// or on a non-unix host).
	shm *shmPlane

	// remote is the machine's arrival upcall (SetRemoteHandler). It is set
	// before Run, and every goroutine that reads it starts in Run.
	remote func(src, dst, size int, payload []byte) bool

	// The end of the run (Quiesce). probe is set while a wave waits for this
	// shard's counts: on the parent, whose reading opens each wave, from the
	// start and after every wave; on a worker from a probe to its answer.
	// wave is the parent's: workers yet to answer, the sum so far, the last
	// wave's (zero at first, which no wave reads: a program's start counts).
	tally func() ([4]uint64, bool)
	over  func()
	probe atomic.Bool
	// ended: the run is over (the parent sent kAllDone, or this worker got it
	// or finished its own run).
	ended atomic.Bool
	wave  struct {
		sync.Mutex
		left      int       //mpmdvet:guard Mutex
		sum, last [4]uint64 //mpmdvet:guard Mutex
	}

	// met is the shard's message-plane registry; per-node instruments live in
	// the inner live backend's registries.
	met *metrics.Registry

	// statsProv serializes this shard's stats payload (SetStatsProvider).
	statsProv func() []byte

	// peerStats is the latest kStats payload from each worker shard
	// (parent only); statsIn gets a token after each.
	statsMu   sync.Mutex
	peerStats map[int][]byte //mpmdvet:guard statsMu
	statsIn   chan struct{}

	// acceptLoop registers each accepted connection and its reader under
	// connMu; one accepted after shutdown set sockClosed is closed at once.
	connMu     sync.Mutex
	conns      []net.Conn //mpmdvet:guard connMu
	sockClosed bool       //mpmdvet:guard connMu
	readers    sync.WaitGroup
}

// New builds a net backend for n nodes in two or more shards. Role, shard
// layout, and rendezvous directory come from opts and the environment (see the
// package comment). A layout of one shard is refused before anything is made.
func New(n int, opts Options) (*Backend, error) {
	if n <= 0 {
		return nil, errors.New("netlive: need at least one node")
	}
	nps := opts.NodesPerShard
	if nps <= 0 || nps >= n {
		return nil, fmt.Errorf("netlive: %d nodes at %d per shard is one shard, one address space: build it with live.New", n, nps)
	}
	shards := (n + nps - 1) / nps
	shard := 0
	fromEnv := false
	switch {
	case opts.Shard != nil:
		shard = *opts.Shard
	case os.Getenv(EnvShard) != "":
		v, err := strconv.Atoi(os.Getenv(EnvShard))
		if err != nil {
			return nil, fmt.Errorf("netlive: bad %s: %v", EnvShard, err)
		}
		shard = v
		fromEnv = true
	}
	if shard < 0 || shard >= shards {
		return nil, fmt.Errorf("netlive: shard %d out of range [0,%d)", shard, shards)
	}
	if fromEnv {
		// The re-exec harness depends on every process building the identical
		// machine; catch divergence before it turns into misrouted frames.
		if en := os.Getenv(EnvNodes); en != "" && en != strconv.Itoa(n) {
			return nil, fmt.Errorf("netlive: child built %d nodes, parent %s (program divergence)", n, en)
		}
		if ep := os.Getenv(EnvNPS); ep != "" && ep != strconv.Itoa(nps) {
			return nil, fmt.Errorf("netlive: child built %d nodes/shard, parent %s (program divergence)", nps, ep)
		}
	}

	b := &Backend{
		inner:  live.New(n, opts.Live),
		n:      n,
		nps:    nps,
		shards: shards,
		shard:  shard,
		lo:     shard * nps,
		hi:     min(shard*nps+nps, n),
		opts:   opts,
		tally:  func() ([4]uint64, bool) { return [4]uint64{}, false },
		over:   func() {},
		met:    metrics.NewRegistry(),

		peerStats: make(map[int][]byte),
		statsIn:   make(chan struct{}, 1),
	}

	b.dir = opts.Dir
	if b.dir == "" {
		b.dir = os.Getenv(EnvDir)
	}
	if b.dir == "" {
		if shard != 0 {
			return nil, errors.New("netlive: worker shard has no rendezvous dir (set Options.Dir or " + EnvDir + ")")
		}
		dir, err := os.MkdirTemp("", "netlive-*")
		if err != nil {
			return nil, fmt.Errorf("netlive: rendezvous dir: %w", err)
		}
		b.dir = dir
		b.ownsDir = true
	}

	// Listen now — peers dial as soon as their first frame queues, and the
	// kernel backlog holds their connections — but accept (and read) only
	// once Run starts: machine and runtime construction happen between New
	// and Run, and an early frame dispatched into a half-built machine
	// would race it. Deferring the readers to Run gives every arriving
	// frame a happens-before edge over the whole setup.
	ln, err := net.Listen("unix", b.sockPath(shard))
	if err != nil {
		return nil, fmt.Errorf("netlive: shard %d listen: %w", shard, err)
	}
	b.ln = ln

	b.peers = make([]*peer, shards)
	for s := 0; s < shards; s++ {
		if s == shard {
			continue
		}
		b.peers[s] = newPeer(b, s)
	}

	// Ring mesh before spawning: a re-exec'd child's attach must find every
	// ring already initialized.
	if err := b.shmSetup(); err != nil {
		b.shutdownSockets()
		return nil, err
	}

	if shard == 0 && opts.Shard == nil {
		if err := b.spawnChildren(); err != nil {
			b.shutdownSockets()
			return nil, err
		}
	}
	return b, nil
}

func (b *Backend) sockPath(shard int) string {
	return filepath.Join(b.dir, fmt.Sprintf("shard-%d.sock", shard))
}

// spawnChildren re-execs this binary once per peer shard, handing each the
// rendezvous directory and its shard index through the environment, and
// waits on each from then on: an exit non-zero or before the run is over
// aborts it. Child stdout goes to stderr, to keep the parent's clean.
func (b *Backend) spawnChildren() error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("netlive: cannot re-exec: %w", err)
	}
	args := b.opts.ChildArgs
	if args == nil {
		args = os.Args[1:]
	}
	b.exited = make(chan struct{}, b.shards-1)
	for s := 1; s < b.shards; s++ {
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(),
			EnvShard+"="+strconv.Itoa(s),
			EnvDir+"="+b.dir,
			EnvNodes+"="+strconv.Itoa(b.n),
			EnvNPS+"="+strconv.Itoa(b.nps),
		)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("netlive: spawn shard %d: %w", s, err)
		}
		b.children = append(b.children, cmd)
		go func() {
			defer func() { b.exited <- struct{}{} }()
			switch err := cmd.Wait(); {
			case err != nil:
				b.inner.Abort(fmt.Errorf("netlive: shard %d exited: %w", s, err))
			case !b.ended.Load():
				b.inner.Abort(fmt.Errorf("netlive: shard %d exited before the run was over", s))
			}
		}()
	}
	return nil
}

// --- transport.Backend ------------------------------------------------------

// Name implements transport.Backend.
func (b *Backend) Name() string { return "net" }

// NumNodes implements transport.Backend.
func (b *Backend) NumNodes() int { return b.n }

// Now implements transport.Backend (wall-clock since construction).
func (b *Backend) Now() time.Duration { return b.inner.Now() }

// Go implements transport.Backend. Procs can only be created on this
// shard's nodes; runtimes consult IsLocal and never ask for more.
func (b *Backend) Go(node int, name string, fn func(transport.Proc)) transport.Proc {
	if !b.IsLocal(node) {
		panic(fmt.Sprintf("netlive: proc %q on node %d, which lives in shard %d (this is shard %d)",
			name, node, b.ShardOf(node), b.shard))
	}
	return b.inner.Go(node, name, fn)
}

// Run implements transport.Backend: execute the local shard, then tear the
// process mesh down. A worker whose run finished sends its stats; the parent
// waits for them, and reaps its children after its links are down, so that a
// worker of an aborted run sees its parent's link end. The error is the
// latch's: every cause, the first first.
func (b *Backend) Run() error {
	go b.acceptLoop()
	if b.shard != 0 {
		b.doorbell(0) // open the link to the parent, read for its end (writeLoop)
	}
	b.shmStart()
	if b.inner.Run() == nil {
		if b.shard == 0 {
			b.waitStats()
		} else {
			b.ended.Store(true) // this shard's part is done, whatever the parent's link does now
			b.sendStats()
		}
	}
	b.shutdownSockets()
	b.reap()
	return b.inner.Err()
}

// reap waits for the workers to exit (an aborted run's once they see its
// links end), and kills those left at the watchdog.
func (b *Backend) reap() {
	wd := b.inner.Watchdog()
	timeout := time.After(wd) // fires once
	for left := len(b.children); left > 0; {
		select {
		case <-b.exited:
			left--
		case <-timeout:
			for _, c := range b.children {
				_ = c.Process.Kill()
			}
			b.inner.Abort(fmt.Errorf("netlive: worker shards still running %v after the run; killed", wd))
		}
	}
}

// shutdownSockets tears down the shm ring plane, then closes writers (each
// drains its queue first), accepted connections, and the listener, and
// removes the rendezvous dir on the parent that created it. It runs on every
// exit path — an aborted run's included — so a wedged machine leaks neither
// ring mappings nor reader/consumer goroutines.
func (b *Backend) shutdownSockets() {
	b.shmShutdown()
	for _, p := range b.peers {
		if p != nil {
			p.close()
		}
	}
	_ = b.ln.Close()
	b.connMu.Lock()
	b.sockClosed = true
	conns := b.conns
	b.conns = nil
	b.connMu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	b.readers.Wait()
	if b.ownsDir {
		_ = os.RemoveAll(b.dir)
	}
}

// --- transport.Sharded: topology and the end of the run ----------------------

// NumShards implements transport.Sharded.
func (b *Backend) NumShards() int { return b.shards }

// Shard implements transport.Sharded.
func (b *Backend) Shard() int { return b.shard }

// ShardOf implements transport.Sharded.
func (b *Backend) ShardOf(node int) int { return node / b.nps }

// IsLocal implements transport.Sharded.
func (b *Backend) IsLocal(node int) bool { return node >= b.lo && node < b.hi }

// LocalNodes returns the nodes of this shard, in ID order.
func (b *Backend) LocalNodes() []int {
	nodes := make([]int, 0, b.hi-b.lo)
	for i := b.lo; i < b.hi; i++ {
		nodes = append(nodes, i)
	}
	return nodes
}

// Quiesce implements transport.Sharded.
func (b *Backend) Quiesce(tally func() ([4]uint64, bool), over func()) (idle func()) {
	b.tally, b.over = tally, over
	b.probe.Store(b.shard == 0)
	return b.idle
}

// idle runs when a local node goes idle, a probe lands, or a wave ends: if a
// wave waits for this shard's counts and the shard is quiet, answer it.
func (b *Backend) idle() {
	if !b.probe.Load() {
		return
	}
	c, ok := b.tally()
	if !ok || !b.probe.CompareAndSwap(true, false) {
		return
	}
	if b.shard == 0 {
		b.wave.Lock()
		b.wave.sum, b.wave.left = c, b.shards-1
		b.wave.Unlock()
	}
	for s, p := range b.peers { // a worker answers the parent, the parent probes every worker
		if p != nil && (s == 0 || b.shard == 0) {
			f := wire.Get(minBody[kWave])
			binary.LittleEndian.PutUint32(f.Bytes(), uint32(b.shard))
			for i, v := range c {
				binary.LittleEndian.PutUint64(f.Bytes()[4+8*i:], v)
			}
			p.push(outFrame{kind: kWave, buf: f})
			b.met.Add(metrics.CtrWaveFrames, 1)
		}
	}
}

// answered adds a worker's counts to the open wave (parent only), false when
// none is open. A complete wave that read the last one's sums, balanced, ends
// the run; any other opens the next wave at the parent's next reading.
func (b *Backend) answered(c []byte) bool {
	b.wave.Lock()
	if b.wave.left == 0 {
		b.wave.Unlock()
		return false
	}
	for i := range b.wave.sum {
		b.wave.sum[i] += binary.LittleEndian.Uint64(c[8*i:])
	}
	b.wave.left--
	sum, left := b.wave.sum, b.wave.left
	over := left == 0 && sum == b.wave.last && sum[0] == sum[1] && sum[2] == sum[3]
	if left == 0 {
		b.wave.last = sum
	}
	b.wave.Unlock()
	if over {
		b.ended.Store(true)
		for _, p := range b.peers {
			if p != nil {
				p.push(outFrame{kind: kAllDone})
			}
		}
		b.over()
	} else if left == 0 {
		b.probe.Store(true)
		b.idle()
	}
	return true
}

// --- transport.Sharded: the packet links ------------------------------------

// SetRemoteHandler implements transport.Sharded.
func (b *Backend) SetRemoteHandler(fn func(src, dst, size int, payload []byte) bool) {
	b.remote = fn
}

// SendRemote implements transport.Sharded: put the packet on the link to the
// shard owning dst. A ring link marshals wp in place; a socket link encodes
// it into a pooled frame for its writer, which releases the frame once the
// bytes are on the wire.
//
//mpmd:hotpath
func (b *Backend) SendRemote(src, dst, size int, wp transport.FrameMarshaler) {
	p := b.peers[b.ShardOf(dst)]
	if p == nil {
		panic(fmt.Sprintf("netlive: SendRemote to local node %d", dst))
	}
	if p.tx != nil {
		p.tx.send(b, src, dst, size, wp)
		return
	}
	p.push(outFrame{kind: kPacket, buf: stagePacket(src, dst, size, wp)})
}

// stagePacket encodes one packet body — header, then wp's bytes — into a
// pooled buffer, consuming wp.
func stagePacket(src, dst, size int, wp transport.FrameMarshaler) *wire.Buf {
	f := wire.Get(packetHdrLen + wp.WireLen())
	putPacketHdr(f.Bytes(), src, dst, size)
	wp.EncodeWire(f.Bytes()[packetHdrLen:])
	return f
}

// putPacketHdr writes the three u32 words that head a packet body.
//
//mpmd:hotpath
func putPacketHdr(b []byte, src, dst, size int) {
	binary.LittleEndian.PutUint32(b, uint32(src))
	binary.LittleEndian.PutUint32(b[4:], uint32(dst))
	binary.LittleEndian.PutUint32(b[8:], uint32(size))
}

// dispatchPacket hands one packet body that arrived on the link from shard
// from to the machine. False means the body is malformed — shorter than its
// header, a source outside the machine or not a node of shard from, a
// destination that is not a node of this shard, a payload the machine's
// decoder rejects — and nothing was dispatched; the caller abandons the link
// the bytes came from.
//
//mpmd:hotpath
func (b *Backend) dispatchPacket(from int, body []byte) bool {
	if len(body) < packetHdrLen {
		return false
	}
	src := int(binary.LittleEndian.Uint32(body))
	dst := int(binary.LittleEndian.Uint32(body[4:]))
	size := int(binary.LittleEndian.Uint32(body[8:]))
	if src >= b.n || b.ShardOf(src) != from || !b.IsLocal(dst) {
		return false
	}
	return b.remote(src, dst, size, body[packetHdrLen:])
}

// doorbell queues a kDoorbell frame naming this shard for shard s (to a
// consumer that is not parked, only a frame naming its link's peer).
func (b *Backend) doorbell(s int) {
	f := wire.Get(minBody[kDoorbell])
	binary.LittleEndian.PutUint32(f.Bytes(), uint32(b.shard))
	b.peers[s].push(outFrame{kind: kDoorbell, buf: f})
}

// dropped counts one frame dropped at a failed or closed link.
func (b *Backend) dropped() {
	b.met.Add(metrics.CtrLinkDropped, 1)
}

// --- transport.WallClock: the inner live backend's, for local nodes --------

// SetArrival implements transport.WallClock.
func (b *Backend) SetArrival(fn func(node int, local bool)) { b.inner.SetArrival(fn) }

// DeliverDirect implements transport.WallClock for local destinations.
func (b *Backend) DeliverDirect(dst int, local bool) { b.inner.DeliverDirect(dst, local) }

// NodeMetrics implements transport.WallClock: the inner live backend's
// per-node registry for local nodes, nil for nodes of other shards.
func (b *Backend) NodeMetrics(node int) *metrics.Registry {
	if !b.IsLocal(node) {
		return nil
	}
	return b.inner.NodeMetrics(node)
}

// MetricsSnapshot implements transport.WallClock: this shard's local nodes
// merged with the shard's message-plane registry.
func (b *Backend) MetricsSnapshot() metrics.Snapshot {
	snaps := make([]metrics.Snapshot, 0, b.hi-b.lo+1)
	snaps = append(snaps, b.met.Snapshot())
	for i := b.lo; i < b.hi; i++ {
		snaps = append(snaps, b.inner.NodeMetrics(i).Snapshot())
	}
	return metrics.Merge(snaps...)
}

// --- transport.Sharded: the stats control plane -----------------------------

// SetStatsProvider implements transport.Sharded.
func (b *Backend) SetStatsProvider(fn func() []byte) { b.statsProv = fn }

// PeerStats implements transport.Sharded: the latest kStats payload from
// each worker shard (parent only; complete after Run).
func (b *Backend) PeerStats() map[int][]byte {
	b.statsMu.Lock()
	defer b.statsMu.Unlock()
	return maps.Clone(b.peerStats)
}

// sendStats (workers) ships the local stats payload to the parent as a
// kStats frame, the worker's word that its run finished. No-op before the
// machine installs a provider.
func (b *Backend) sendStats() {
	if b.statsProv == nil {
		return
	}
	// Drain the peer writers first, so that net.frames.out counts what
	// reached the peers.
	for _, p := range b.peers {
		if p != nil {
			p.flush()
		}
	}
	payload := b.statsProv()
	f := wire.Get(4 + len(payload))
	binary.LittleEndian.PutUint32(f.Bytes(), uint32(b.shard))
	copy(f.Bytes()[4:], payload)
	b.peers[0].push(outFrame{kind: kStats, buf: f})
	b.peers[0].flush() // on the wire before this process may exit
}

// waitStats (parent) waits for every worker shard's final kStats payload, or
// for the latch, which a worker gone without one has raised. A missing
// payload is one more cause (and ClusterStats will refuse to fabricate
// totals).
func (b *Backend) waitStats() {
	for {
		b.statsMu.Lock()
		got := len(b.peerStats)
		b.statsMu.Unlock()
		if got == b.shards-1 {
			return
		}
		select {
		case <-b.statsIn:
		case <-b.inner.Aborted():
			b.inner.Abort(fmt.Errorf("netlive: stats from only %d of %d worker shards", got, b.shards-1))
			return
		}
	}
}

// --- reading ----------------------------------------------------------------

// acceptLoop admits peer connections and spawns a reader for each.
func (b *Backend) acceptLoop() {
	for {
		conn, err := b.ln.Accept()
		if err != nil {
			return // listener closed
		}
		b.connMu.Lock()
		if b.sockClosed {
			// Shutdown won the race: this connection was accepted after the
			// teardown snapshot, so nobody else would ever close it.
			b.connMu.Unlock()
			_ = conn.Close()
			return
		}
		b.conns = append(b.conns, conn)
		b.readers.Add(1)
		b.connMu.Unlock()
		go b.readLoop(conn)
	}
}

// readLoop decodes frames from one peer connection. Frame bodies land in
// pooled buffers and are recycled after dispatch; the packet handler runs
// synchronously here, which preserves the sender's frame order. A frame that
// is oversize, too short for its kind, of no known kind, a malformed packet,
// a packet on a link whose data rides a ring, or a control frame this link may
// not carry (below) aborts the run with one error and ends the connection.
func (b *Backend) readLoop(conn net.Conn) {
	defer b.readers.Done()
	defer conn.Close()
	var hdr [5]byte
	from := -1 // the link's peer shard, once the first frame has named it
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			if err == io.EOF {
				b.linkEnded(from)
			} else if !isClosedErr(err) {
				b.inner.Abort(fmt.Errorf("netlive: shard %d read: %w", b.shard, err))
			}
			return
		}
		n := int(binary.LittleEndian.Uint32(hdr[:4]))
		kind := frameKind(hdr[4])
		if n > maxFrameBytes || (int(kind) < len(minBody) && n < minBody[kind]) {
			b.inner.Abort(fmt.Errorf("netlive: shard %d: peer sent a %d-byte frame of kind %d (limit %d bytes); connection abandoned",
				b.shard, n, kind, maxFrameBytes))
			return
		}
		var body []byte
		var buf *wire.Buf
		if n > 0 {
			buf = wire.Get(n)
			body = buf.Bytes()
			if _, err := io.ReadFull(conn, body); err != nil {
				buf.Release()
				b.inner.Abort(fmt.Errorf("netlive: shard %d read body: %w", b.shard, err))
				return
			}
		}
		b.met.Add(metrics.CtrFramesIn, 1)
		b.met.Add(metrics.CtrBytesIn, int64(5+n))
		// A control frame names its sender, the link's peer. Waves pass between
		// the parent and a worker, stats go to the parent, answers need a wave.
		s := -1
		if kind == kWave || kind == kStats || kind == kDoorbell {
			s = int(binary.LittleEndian.Uint32(body))
			if from < 0 {
				from = s
			}
			ok := s == from && s < b.shards && s != b.shard && (kind != kWave || s == 0 || b.shard == 0) && (kind != kStats || b.shard == 0)
			if !ok || (kind == kWave && b.shard == 0 && !b.answered(body[4:])) {
				buf.Release()
				b.inner.Abort(fmt.Errorf("netlive: shard %d: peer sent a kind %d frame naming shard %d, which this link does not take from it; connection abandoned", b.shard, kind, s))
				return
			}
		}
		switch kind {
		case kPacket:
			if b.remote == nil {
				panic("netlive: packet frame before the machine installed its remote handler")
			}
			src := int(binary.LittleEndian.Uint32(body)) // minBody: a packet body holds its header
			if from < 0 && src < b.n && b.ShardOf(src) != b.shard {
				from = b.ShardOf(src) // a packet names the link's peer by its source node
			}
			if from >= 0 && b.peers[from].tx != nil { // from a worker built before its parent
				buf.Release()
				b.inner.Abort(fmt.Errorf("netlive: shard %d: packet frame from shard %d on the socket of a ring link (the sender found no rings); connection abandoned", b.shard, from))
				return
			}
			if !b.dispatchPacket(from, body) {
				buf.Release()
				b.inner.Abort(fmt.Errorf("netlive: shard %d: peer sent a malformed packet frame (%d-byte body, claimed source node %d of shard %d); connection abandoned",
					b.shard, n, src, b.ShardOf(src)))
				return
			}
		case kWave: // a worker's answer joined the wave above
			if b.shard != 0 {
				b.probe.Store(true)
				b.idle()
			}
		case kAllDone:
			b.ended.Store(true)
			b.over()
		case kStats:
			// The pooled body is recycled below; the payload must outlive it.
			b.statsMu.Lock()
			b.peerStats[s] = append([]byte(nil), body[4:]...)
			b.statsMu.Unlock()
			poke(b.statsIn)
		case kDoorbell:
			b.shmWake(s)
		default:
			if buf != nil {
				buf.Release()
			}
			b.inner.Abort(fmt.Errorf("netlive: shard %d: peer sent a frame of unknown kind %d; connection abandoned", b.shard, kind))
			return
		}
		if buf != nil {
			buf.Release()
		}
	}
}

// linkEnded takes the end (EOF) of a link with shard s, -1 when no frame
// named it. Between two workers it means nothing: a sibling closes once it is
// done, maybe before this shard has read its own kAllDone. A link with the
// parent ends early at a worker before the run is over, and a worker's at the
// parent before its stats.
func (b *Backend) linkEnded(s int) {
	b.statsMu.Lock()
	_, reported := b.peerStats[s]
	b.statsMu.Unlock()
	if s == 0 && !b.ended.Load() || s > 0 && b.shard == 0 && !reported {
		b.inner.Abort(fmt.Errorf("netlive: shard %d: the link with shard %d ended before the run was over", b.shard, s))
	}
}

func isClosedErr(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe)
}

// --- the per-peer writer ----------------------------------------------------

// outFrame is one queued wire frame. buf (optional) is the whole body — for
// a packet, header included; ownership rides with the frame.
type outFrame struct {
	kind frameKind
	buf  *wire.Buf
	at   time.Duration // push time (backend clock), for writer-stall metrics
}

// peer is the one ordered link to a remote shard. Its socket — an unbounded
// ring of frames drained by a single writer goroutine, so senders never block
// on it and per-sender order is preserved — carries the control frames
// always, and the data frames when tx is nil. The connection is dialed
// lazily on the first frame, retrying while the peer's listener comes up.
type peer struct {
	b     *Backend
	shard int

	// tx is the link's data path when the shared-memory plane is up: the
	// producer end of the ring to this shard. Set once in New, before any
	// send; with it set no packet frame ever reaches the socket.
	tx *shmTx

	mu     sync.Mutex
	cond   *sync.Cond          //mpmdvet:cond mu
	q      wire.Ring[outFrame] //mpmdvet:guard mu
	closed bool                //mpmdvet:guard mu

	started bool //mpmdvet:guard mu

	// queued counts frames ever pushed; sent counts frames put on the wire
	// or dropped by a failed link, and progress gets a token after each.
	// flush waits for them to meet.
	queued   atomic.Int64
	sent     atomic.Int64
	progress chan struct{}
}

func newPeer(b *Backend, shard int) *peer {
	p := &peer{b: b, shard: shard, progress: make(chan struct{}, 1)}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// push queues a frame (never blocks) and lazily starts the writer.
//
//mpmd:coldpath its only allocation is the one-time lazy start of the per-peer writer goroutine
func (p *peer) push(f outFrame) {
	f.at = p.b.inner.Now()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		if f.buf != nil {
			f.buf.Release()
		}
		p.b.dropped()
		return
	}
	p.q.Push(f)
	depth := p.q.Len()
	if !p.started {
		p.started = true
		go p.writeLoop()
	}
	p.queued.Add(1)
	p.mu.Unlock()
	p.b.met.Raise(metrics.GgePeerRingDepth, int64(depth))
	p.cond.Signal() // the writer
}

// flush waits until every frame queued so far is on the wire (or dropped by a
// failed link), or the run is aborted.
func (p *peer) flush() {
	want := p.queued.Load()
	for p.sent.Load() < want {
		select {
		case <-p.progress:
		case <-p.b.inner.Aborted():
			return
		}
	}
}

// accounted counts n more frames as sent and tells a flusher.
func (p *peer) accounted(n int64) {
	p.sent.Add(n)
	poke(p.progress)
}

// poke leaves a token in ch, of capacity 1, unless one is there already.
func poke(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// close shuts the queue; the writer exits after draining.
func (p *peer) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Signal()
}

// dial connects to the peer shard, looking for its socket every 10 ms while
// it comes up. It gives up (nil) once the link is closed or the run aborted.
func (p *peer) dial() net.Conn {
	for {
		if conn, err := net.Dial("unix", p.b.sockPath(p.shard)); err == nil {
			return conn
		}
		p.mu.Lock()
		closed := p.closed
		p.mu.Unlock()
		if closed {
			return nil
		}
		select {
		case <-p.b.inner.Aborted():
			return nil
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// writeLoop drains the frame ring onto the socket. The frame header is
// assembled in a reusable scratch buffer and the pooled body released after
// the write, so steady-state cross-shard sends allocate nothing here. A
// failed write aborts the run. A worker's connection to its parent carries
// nothing back and is read for its end: the parent's teardown or death.
func (p *peer) writeLoop() {
	conn := p.dial()
	if conn == nil {
		p.fail()
		return
	}
	defer conn.Close()
	if p.shard == 0 {
		go func() {
			if _, err := conn.Read(make([]byte, 1)); !isClosedErr(err) {
				p.b.linkEnded(0)
			}
		}()
	}
	var hdr [5]byte
	for {
		p.mu.Lock()
		for p.q.Len() == 0 && !p.closed {
			p.cond.Wait()
		}
		f, ok := p.q.Pop()
		p.mu.Unlock()
		if !ok {
			return // closed and drained
		}
		p.b.met.ObserveDur(metrics.HstWriterStall, p.b.inner.Now()-f.at)
		bodyLen := 0
		if f.buf != nil {
			bodyLen = f.buf.Len()
		}
		binary.LittleEndian.PutUint32(hdr[:4], uint32(bodyLen))
		hdr[4] = byte(f.kind)
		_, werr := conn.Write(hdr[:])
		if werr == nil && f.buf != nil {
			_, werr = conn.Write(f.buf.Bytes())
		}
		if f.buf != nil {
			f.buf.Release()
		}
		if werr != nil {
			p.b.dropped()
			p.accounted(1)
			p.fail()
			if !isClosedErr(werr) {
				p.b.inner.Abort(fmt.Errorf("netlive: write to shard %d: %w", p.shard, werr))
			}
			return
		}
		p.accounted(1)
		p.b.met.Add(metrics.CtrFramesOut, 1)
		p.b.met.Add(metrics.CtrBytesOut, int64(5+bodyLen)) // total wire bytes: length prefix + kind + body
	}
}

// fail closes the link after a connection failure: queued frames are released
// (so buffer pools are not starved) and counted, and later pushes drop as on
// any closed link.
func (p *peer) fail() {
	p.mu.Lock()
	p.closed = true
	n := int64(0)
	for f, ok := p.q.Pop(); ok; f, ok = p.q.Pop() {
		if f.buf != nil {
			f.buf.Release()
		}
		p.b.dropped()
		n++
	}
	p.mu.Unlock()
	p.accounted(n) // flushers: every queued frame is now accounted for
}
