//go:build unix

package netlive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/am"
	"repro/internal/metrics"
	"repro/internal/threads"
	"repro/internal/transport/live"
	"repro/internal/wire"
)

// bareShards builds the two backends of a 4-node, 2-shard machine with no
// machine layer above them: the tests below feed their links raw bytes. The
// remote handler is a stand-in decoder that rejects a payload under minPayload
// bytes, as am's rejects one under its header; any packet it would accept is a
// test failure.
func bareShards(t *testing.T, mods ...func(*Options)) (a, b *Backend) {
	t.Helper()
	dir := t.TempDir()
	build := func(shard int) *Backend {
		opts := Options{NodesPerShard: 2, Shard: &shard, Dir: dir, ShmRingBytes: 4 << 10}
		for _, mod := range mods {
			mod(&opts)
		}
		be, err := New(4, opts)
		if err != nil {
			t.Fatalf("New shard %d: %v", shard, err)
		}
		t.Cleanup(be.shutdownSockets)
		be.SetRemoteHandler(func(src, dst, size int, payload []byte) bool {
			if len(payload) >= minPayload {
				t.Errorf("malformed bytes were dispatched as a packet %d->%d", src, dst)
			}
			return false
		})
		return be
	}
	return build(0), build(1)
}

// ringCap is the data area of bareShards' rings, in bytes.
const ringCap = 4 << 10

// minPayload is the shortest payload these tests' stand-in decoder takes, in
// bytes: a number of the tests' own (what am takes is am's business, and
// TestTruncatedAMBody below reads it off am). A well-formed packet carries
// minWords words of payload; one word fewer is a truncated body.
const (
	minWords   = 10
	minPayload = 4 * minWords
)

// pkt is a packet body: the three header words and n zero words of payload.
func pkt(src, dst uint32, n int) []uint32 {
	return append([]uint32{src, dst, 48}, make([]uint32, n)...)
}

func words(ws ...uint32) []byte {
	b := make([]byte, 4*len(ws))
	for i, w := range ws {
		binary.LittleEndian.PutUint32(b[4*i:], w)
	}
	return b
}

// TestHostileSocketFrames writes malformed frames into a shard's real
// listening socket: the worker's, or the parent's where a row says so. Each
// must end that connection with one named error — no panic, no index out of
// range, no allocation sized by the peer's word, and no control frame taken on
// a shard word naming a shard that cannot send it there.
func TestHostileSocketFrames(t *testing.T) {
	frame := func(n uint32, kind frameKind, body ...uint32) []byte {
		return append(append(words(n), byte(kind)), words(body...)...)
	}
	wave := func(shard uint32) []byte { return frame(36, kWave, append([]uint32{shard}, make([]uint32, 8)...)...) }
	type row struct {
		name   string
		bytes  []byte
		want   string
		parent bool // written to the parent's socket, not the worker's
		shards int  // the machine's shards (its 4 nodes); 0 means 2
	}
	rows := []row{
		{name: "zero-length packet", bytes: frame(0, kPacket), want: "0-byte frame of kind 1"},
		{name: "packet shorter than its header", bytes: frame(8, kPacket, 0, 2), want: "8-byte frame of kind 1"},
		{name: "length over the frame limit", bytes: frame(maxFrameBytes+1, kPacket), want: "limit 67108864 bytes"},
		{name: "empty doorbell", bytes: frame(0, kDoorbell), want: "0-byte frame of kind 5"},
		// Whole packets but for the one field: only the range checks stand
		// between them and the handler.
		{name: "packet for a node of another shard", bytes: frame(12+minPayload, kPacket, pkt(0, 1, minWords)...), want: "source node 0 of shard 0"},
		{name: "packet from a node outside the machine", bytes: frame(12+minPayload, kPacket, pkt(99, 2, minWords)...), want: "source node 99"},
		{name: "packet from a node of the receiving shard", bytes: frame(12+minPayload, kPacket, pkt(2, 3, minWords)...), want: "source node 2 of shard 1"},
		{name: "packet with a truncated payload", bytes: frame(12+minPayload-4, kPacket, pkt(0, 2, minWords-1)...), want: "source node 0 of shard 0"},
		{name: "unknown frame kind", bytes: frame(4, 7, 0), want: "unknown kind 7"},
		{name: "retired stats-request kind", bytes: frame(0, 6), want: "unknown kind 6"},
		{name: "frame kind zero", bytes: frame(0, 0), want: "unknown kind 0"},
		// Control frames whose shard word the receiver must not take: one that
		// would be filed as the parent's stats, one for a shard past the machine,
		// one for a worker other than the link's peer, and frames of a kind the
		// shard never receives from the shard they name.
		{name: "stats naming the parent", bytes: frame(4, kStats, 0), want: "kind 4 frame naming shard 0", parent: true},
		{name: "stats naming a shard past the machine", bytes: frame(4, kStats, 2), want: "kind 4 frame naming shard 2", parent: true},
		{name: "stats naming another worker than the link's", bytes: append(frame(4, kDoorbell, 2), frame(4, kStats, 3)...),
			want: "kind 4 frame naming shard 3", parent: true, shards: 4},
		{name: "stats on a worker", bytes: frame(4, kStats, 0), want: "kind 4 frame naming shard 0"},
		{name: "doorbell naming the receiver", bytes: frame(4, kDoorbell, 1), want: "kind 5 frame naming shard 1"},
		{name: "wave between two workers", bytes: wave(2), want: "kind 2 frame naming shard 2", shards: 4},
		{name: "answer no wave waits for", bytes: wave(1), want: "kind 2 frame naming shard 1", parent: true},
	}
	// One accepted row per declared kind: its shortest well-formed frame, then
	// a frame of no kind. The reader must take the first — a kind minBody
	// declares and readLoop's switch forgot lands in default — and name only
	// the second. Stats go to the parent, as a worker sends them.
	hostile := len(rows)
	for k := 1; k < len(minBody); k++ {
		body := make([]uint32, minBody[k]/4)
		switch frameKind(k) {
		case kPacket:
			body = pkt(0, 2, minWords)
		case kStats:
			body[0] = 1
		}
		rows = append(rows, row{name: fmt.Sprintf("kind %d accepted", k), parent: frameKind(k) == kStats,
			bytes: append(frame(uint32(4*len(body)), frameKind(k), body...), frame(0, 0)...), want: "unknown kind 0"})
	}
	for i, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			a, b := bareShards(t, func(o *Options) {
				o.DisableShm = true
				if tc.shards != 0 {
					o.NodesPerShard = 4 / tc.shards
				}
			})
			if tc.parent {
				b = a
			}
			if i >= hostile {
				b.SetRemoteHandler(func(src, dst, size int, payload []byte) bool { return true })
			}
			go b.acceptLoop()
			conn, err := net.Dial("unix", b.sockPath(b.shard))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.bytes); err != nil {
				t.Fatal(err)
			}
			// The reader abandons the connection: our read sees it closed (EOF,
			// or a reset when body bytes were still unread).
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("read after a malformed frame: %v, want the connection closed", err)
			}
			if err := b.inner.Err(); err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "\n") {
				t.Fatalf("Err = %v, want one error, naming %q", err, tc.want)
			}
		})
	}
}

// hostileRecords are ring contents no producer writes: data at offset 0 of
// the data area of a bareShards ring, the published tail, and what the error
// that abandons the ring must name.
var hostileRecords = []struct {
	name string
	data []byte
	tail uint64
	want string
}{
	{"record longer than the published bytes", words(64, 0, 2, 48), 16, "record runs past the published tail"},
	{"record shorter than its header", words(8, 0), 8, "record runs past the published tail"},
	{"record longer than the ring", words(ringCap + 16), ringCap, "record runs past the published tail"},
	{"wrap marker beyond the tail", words(wrapMarker, 0), 8, "wrap marker past the published tail"},
	{"tail a lap ahead of head", nil, ringCap + 8, "cursors outside the ring"},
	{"fragment total over the frame limit", words(32|recFrag, maxFrameBytes+1, 0, 0, 1, 2, 3, 4), 32, "over the frame limit"},
	{"fragment with no packet in progress", words(32|recFrag, 100, 16, 0, 1, 2, 3, 4), 32, "fragment out of sequence"},
	{"fragment past its own total", words(32|recFrag, 8, 0, 0, 1, 2, 3, 4), 32, "fragment out of sequence"},
	{"whole record inside a fragmented packet",
		append(words(32|recFrag, 100, 0, 0, 1, 2, 3, 4), words(16, 0, 2, 48)...), 48, "whole record inside a fragmented packet"},
	// Whole records but for the one field: only the range checks stand
	// between them and the handler.
	{"packet for a node of another shard", append(words(16+minPayload), words(pkt(0, 1, minWords)...)...), 16 + minPayload, "malformed packet body"},
	{"packet from a node outside the machine", append(words(16+minPayload), words(pkt(99, 2, minWords)...)...), 16 + minPayload, "malformed packet body"},
	{"packet from a node of the receiving shard", append(words(16+minPayload), words(pkt(2, 3, minWords)...)...), 16 + minPayload, "malformed packet body"},
	{"reassembled packet shorter than its header", words(24|recFrag, 8, 0, 0, 1, 2), 24, "malformed packet body"},
	{"packet with a truncated payload", append(words(16+minPayload-4), words(pkt(0, 2, minWords-1)...)...), 16 + minPayload, "malformed packet body"}, // tail: the record, 8-aligned
}

// drainRing writes data and tail through the producer's mapping of shard 0's
// ring to shard 1 and drains it through the consumer's: shmDrain's verdict,
// and whether the ring is now dead and its head at tail. On a running shard
// another consumer may have abandoned the ring first.
func drainRing(a, b *Backend, data []byte, tail uint64) (ok, dead, atTail bool) {
	tx, rx := a.peers[1].tx.r, b.shm.rx[0]
	copy(tx.data, data)
	tx.tail.Store(tail)
	rx.mu.Lock()
	defer rx.mu.Unlock() // a drain that panics must fail the test, not hang its cleanup
	if rx.dead {
		return false, true, rx.head == tail
	}
	ok = b.shmDrain(rx, rx.r.tail.Load(), metrics.CtrShmFramesInReader)
	return ok, rx.dead, rx.head == tail
}

// TestHostileRingRecords writes malformed records through the producer's
// mapping of a real ring file and drains them through the consumer's. Each
// must abandon the ring with one error naming the peer shard.
func TestHostileRingRecords(t *testing.T) {
	for _, tc := range hostileRecords {
		t.Run(tc.name, func(t *testing.T) {
			a, b := bareShards(t)
			if ok, dead, _ := drainRing(a, b, tc.data, tc.tail); ok || !dead {
				t.Fatalf("shmDrain = %v, ring dead = %v: want the ring abandoned", ok, dead)
			}
			err := b.inner.Err()
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "from shard 0") {
				t.Fatalf("Err = %v, want one naming shard 0 and %q", err, tc.want)
			}
		})
	}
}

// TestRingCorruptedMidRun writes each hostile record onto the ring from
// shard 0 to shard 1 while both shards run, their procs waiting for packets
// that never come. The shard that finds the record aborts its run; its end of
// link then aborts the other's. Both runs end within 1 s of the record, each
// with an error naming shard 0 or 1, instead of at the watchdog.
func TestRingCorruptedMidRun(t *testing.T) {
	for _, tc := range hostileRecords {
		t.Run(tc.name, func(t *testing.T) {
			mods := func(o *Options) {
				o.ShmRingBytes = ringCap
				o.Live.Watchdog = 5 * time.Second
			}
			dir := t.TempDir()
			a := newShardRig(t, 4, 2, 0, dir, mods)
			b := newShardRig(t, 4, 2, 1, dir, mods)
			var never [2]am.Count
			var started sync.WaitGroup
			started.Add(2)
			for i, r := range []*shardRig{a, b} {
				node := 2 * i
				r.scheds[node].Start("waiter", func(th *threads.Thread) {
					started.Done()
					r.net.Endpoint(node).Await(th, &never[i], 1)
				})
			}
			errs := make(chan error, 2)
			for _, r := range []*shardRig{a, b} {
				go func() { errs <- r.m.Run() }()
			}
			started.Wait()
			at := time.Now()
			drainRing(a.be, b.be, tc.data, tc.tail)
			for range 2 {
				err := <-errs
				t.Logf("Run after %v: %v", time.Since(at), err)
				if msg := fmt.Sprint(err); !strings.Contains(msg, "shard 0") && !strings.Contains(msg, "shard 1") {
					t.Errorf("Run returned %v, want an error naming shard 0 or 1", err)
				}
			}
			if took := time.Since(at); took > time.Second {
				t.Fatalf("the runs ended %v after the bad record, want within 1s", took)
			}
		})
	}
}

// FuzzRingRecords drives arbitrary bytes and a published tail, as the
// producer side of a ring another process writes, through the consumer's
// drain of a bare two-shard ring. Every input drains to its tail, or abandons
// the ring with one error naming shard 0; only packets from a node of shard 0
// to a node of shard 1 reach the handler. `go test ./...` runs only the
// seeds: every hostileRecords row and one well-formed record.
func FuzzRingRecords(f *testing.F) {
	for _, tc := range hostileRecords {
		f.Add(tc.data, tc.tail)
	}
	f.Add(append(words(16+minPayload), words(pkt(0, 2, minWords)...)...), uint64(16+minPayload))
	f.Fuzz(func(t *testing.T, data []byte, tail uint64) {
		a, b := bareShards(t)
		b.SetRemoteHandler(func(src, dst, size int, payload []byte) bool {
			if src < 0 || src >= 2 || dst < 2 || dst >= 4 {
				t.Errorf("packet %d->%d dispatched from the ring of shard 0 to shard 1", src, dst)
			}
			return len(payload) >= minPayload
		})
		ok, dead, atTail := drainRing(a, b, data, tail)
		err := b.inner.Err()
		switch {
		case ok && (dead || !atTail || err != nil):
			t.Fatalf("shmDrain = true, ring dead = %v, head at the tail = %v, Err = %v: want a clean drain", dead, atTail, err)
		case !ok && (!dead || err == nil || !strings.Contains(err.Error(), "from shard 0") || strings.Contains(err.Error(), "\n")):
			t.Fatalf("shmDrain = false, ring dead = %v, Err = %v: want the ring abandoned with one error naming shard 0", dead, err)
		}
	})
}

// TestTruncatedAMBody is the same check with the real stack above the link,
// over both links: am's decoder rejects a payload shorter than its wire header
// and one whose handler ID names nothing registered, so a packet one byte short
// of an empty message, or for the handler one past the table, abandons the link
// with one error naming the peer shard — nothing indexed, nothing delivered —
// and the empty message for a registered handler gets through.
func TestTruncatedAMBody(t *testing.T) {
	encode := func(h am.HandlerID) []byte {
		m := &am.Msg{H: h}
		b := make([]byte, m.WireLen()) // no payload: the header alone
		m.EncodeWire(b)
		return b
	}
	hdr := encode(0)
	for _, tc := range []struct {
		name string
		body []byte
		ok   bool
	}{
		{"header alone", hdr, true},
		{"one byte short of the header", hdr[:len(hdr)-1], false},
		{"handler id one past the table", encode(1), false},
	} {
		rigs := func(t *testing.T, mods ...func(*Options)) (a, b *shardRig) {
			dir := t.TempDir()
			a = newShardRig(t, 4, 2, 0, dir, mods...)
			b = newShardRig(t, 4, 2, 1, dir, mods...)
			t.Cleanup(a.be.shutdownSockets)
			t.Cleanup(b.be.shutdownSockets)
			b.net.Register("nop", func(*threads.Thread, am.Msg) {})
			return a, b
		}
		// check: the shard holds one error naming want (none for ""), and the
		// packet arrived exactly when it should have.
		check := func(t *testing.T, b *shardRig, want string) {
			t.Helper()
			if err := fmt.Sprint(b.be.inner.Err()); (want == "") != (err == "<nil>") || !strings.Contains(err, want) || strings.Contains(err, "\n") {
				t.Fatalf("Err = %v, want one error, naming %q", err, want)
			}
			if in := b.m.Node(2).InboxLen(); tc.ok != (in == 1) {
				t.Fatalf("node 2 holds %d messages, want the packet delivered: %v", in, tc.ok)
			}
		}
		ring := func(t *testing.T) {
			a, b := rigs(t)
			a.be.SendRemote(0, 2, 48, raw(tc.body))
			rx := b.be.shm.rx[0]
			ok := func() bool {
				rx.mu.Lock()
				defer rx.mu.Unlock() // a decoder that panics must fail the test, not hang its cleanup
				return b.be.shmDrain(rx, rx.r.tail.Load(), metrics.CtrShmFramesInReader)
			}()
			if ok != tc.ok {
				t.Fatalf("shmDrain = %v, want %v (Err: %v)", ok, tc.ok, b.be.inner.Err())
			}
			if tc.ok {
				check(t, b, "")
			} else {
				check(t, b, "from shard 0 abandoned: malformed packet body")
			}
		}
		socket := func(t *testing.T) {
			_, b := rigs(t, func(o *Options) { o.DisableShm = true })
			go b.be.acceptLoop()
			conn, err := net.Dial("unix", b.be.sockPath(1))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			// The packet frame, then a frame of no kind: what ends the
			// connection when the packet itself is taken.
			frame := append(append(words(uint32(12+len(tc.body))), byte(kPacket)), words(0, 2, 48)...)
			frame = append(append(frame, tc.body...), append(words(0), 0)...)
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("read after the frames: %v, want the connection closed", err)
			}
			if tc.ok {
				check(t, b, "unknown kind 0")
			} else {
				check(t, b, "claimed source node 0 of shard 0")
			}
		}
		t.Run(tc.name, func(t *testing.T) {
			t.Run("ring", ring)
			t.Run("socket", socket)
		})
	}
}

// raw is a payload of exactly these bytes for driving SendRemote directly.
type raw []byte

func (r raw) WireLen() int            { return len(r) }
func (r raw) EncodeWire(b []byte) int { return copy(b, r) }

// zeros is an all-zero payload of its own length for driving SendRemote
// directly.
type zeros int

func (z zeros) WireLen() int            { return int(z) }
func (z zeros) EncodeWire(b []byte) int { clear(b[:z]); return int(z) }

// TestShmFragments: packets over a quarter of the ring — one of them larger
// than the whole ring — cross as fragment records, arrive whole and in order
// between ordinary packets, and count once each as frames.
func TestShmFragments(t *testing.T) {
	a, b := bareShards(t)
	sizes := []int{32, 2 << 10, 32, 20 << 10, 32} // 4 KiB ring: 1 KiB record limit
	got := make(chan int, len(sizes))
	b.SetRemoteHandler(func(src, dst, size int, payload []byte) bool { got <- len(payload); return true })
	b.shmStart()
	for _, n := range sizes {
		a.SendRemote(0, 2, 48, zeros(n))
	}
	for i, want := range sizes {
		select {
		case n := <-got:
			if n != want {
				t.Fatalf("packet %d arrived with %d bytes, want %d", i, n, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("packet %d never arrived", i)
		}
	}
	b.shutdownSockets() // waits for the consumer, which counts after it dispatches
	out, in := a.MetricsSnapshot().Counter, b.MetricsSnapshot().Counter
	if framesIn := in(metrics.CtrShmFramesInProc) + in(metrics.CtrShmFramesInReader); out(metrics.CtrShmFramesOut) != 5 || framesIn != 5 {
		t.Fatalf("frames out/in = %d/%d, want 5/5", out(metrics.CtrShmFramesOut), framesIn)
	}
	// ceil((12+2048)/1008) + ceil((12+20480)/1008) fragments.
	if f := out(metrics.CtrShmFragsOut); f != 3+21 || in(metrics.CtrShmFragsIn) != f {
		t.Fatalf("fragments out/in = %d/%d, want 24/24", f, in(metrics.CtrShmFragsIn))
	}
}

// TestShmDeadLinkDrops: a ring whose consumer never runs fills up, and the
// sender waiting for room is released by the run's latch, by its own shard's
// teardown, or by its consumer going away, which aborts the run with one
// error naming shard 1. The frame it waited with and every later one are
// dropped and counted — none is re-routed to the socket.
func TestShmDeadLinkDrops(t *testing.T) {
	for _, tc := range []struct {
		name    string
		release func(a, b *Backend)
		want    string // a's one cause; "" for none
	}{
		{"latch", func(a, _ *Backend) { a.inner.Abort(errors.New("aborted by the test")) }, "aborted by the test"},
		{"teardown", func(a, _ *Backend) { a.shutdownSockets() }, ""},
		{"consumer gone", func(_, b *Backend) { b.shutdownSockets() }, "shm ring to shard 1: its consumer is gone"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := bareShards(t)
			const sends = 200 // 4 KiB ring / 48 B records: full after 85
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < sends; i++ {
					a.SendRemote(0, 2, 48, zeros(32))
				}
			}()
			for r := a.peers[1].tx.r; r.tail.Load()+48 <= ringCap; {
				runtime.Gosched()
			}
			tc.release(a, b)
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("the sender waiting for room was not released")
			}
			snap := a.MetricsSnapshot()
			out, dropped := snap.Counter(metrics.CtrShmFramesOut), snap.Counter(metrics.CtrLinkDropped)
			if out != ringCap/48 || out+dropped != sends {
				t.Fatalf("shm.frames.out = %d, net.link.dropped = %d, want %d and %d together", out, dropped, ringCap/48, sends)
			}
			if q := a.peers[1].queued.Load(); q != 0 {
				t.Fatalf("%d frames queued on the socket of a ring link", q)
			}
			if err := fmt.Sprint(a.inner.Err()); (tc.want == "") != (err == "<nil>") || !strings.Contains(err, tc.want) || strings.Contains(err, "\n") {
				t.Fatalf("Err = %v, want one error, naming %q", err, tc.want)
			}
		})
	}
}

// TestWorkerBeforeParent builds a worker shard before its parent: the worker
// finds no rings and takes the socket, and the parent then makes its rings.
// The worker's packet to the parent arrives on the socket of a link the parent
// carries on a ring, which aborts the parent's run at once with the error
// naming shard 1 — not at the watchdog, with a stall.
func TestWorkerBeforeParent(t *testing.T) {
	dir := t.TempDir()
	b := newShardRig(t, 4, 2, 1, dir)
	a := newShardRig(t, 4, 2, 0, dir)
	if a.be.ShmActive() == b.be.ShmActive() {
		t.Fatalf("ShmActive parent/worker = %v/%v, want the parent's rings and a worker on the socket", a.be.ShmActive(), b.be.ShmActive())
	}
	var got am.Count
	h := a.net.Register("w.msg", func(th *threads.Thread, _ am.Msg) { got.Advance(th, 1) })
	_ = b.net.Register("w.msg", func(*threads.Thread, am.Msg) {})
	b.scheds[2].Start("sender", func(th *threads.Thread) {
		b.net.Endpoint(2).Request(th, 0, h, [4]uint64{}, nil, false)
	})
	a.scheds[0].Start("receiver", func(th *threads.Thread) {
		a.net.Endpoint(0).Await(th, &got, 1)
	})
	var errA error
	var took time.Duration
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); start := time.Now(); errA = a.m.Run(); took = time.Since(start) }()
		go func() { defer wg.Done(); t.Logf("worker Run: %v", b.m.Run()) }()
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("the run did not end")
	}
	const want = "packet frame from shard 1 on the socket of a ring link"
	t.Logf("parent Run after %v: %v", took, errA)
	var stall *live.StallError
	if err := fmt.Sprint(errA); strings.Count(err, want) != 1 || errors.As(errA, &stall) || took > 100*time.Millisecond {
		t.Fatalf("parent's Run returned %v after %v, want one error naming %q, no stall, within 100ms", errA, took, want)
	}
	if got.Value() != 0 {
		t.Fatal("the packet on the socket of a ring link was delivered")
	}
}

// TestWorkerKilled re-execs this test as shard 1 of a 4-node machine, whose
// handler SIGKILLs its own process on the fifth of node 0's pings. The
// parent's Run must return within 2 s of the last answered ping with the
// error that shard 1's process was killed, and leave no worker process
// behind.
func TestWorkerKilled(t *testing.T) {
	r := newShardRig(t, 4, 2, 0, "", func(o *Options) {
		o.Shard = nil
		o.ChildArgs = []string{"-test.run=^TestWorkerKilled$", "-test.count=1"}
	})
	var pings, acks am.Count
	var hAck am.HandlerID
	hPing := r.net.Register("k.ping", func(th *threads.Thread, m am.Msg) {
		if m.A[0] == 4 {
			_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
		}
		pings.Advance(th, 1)
		r.net.Endpoint(2).Request(th, 0, hAck, m.A, nil, false)
	})
	hAck = r.net.Register("k.ack", func(th *threads.Thread, _ am.Msg) { acks.Advance(th, 1) })
	var answered atomic.Int64 // when the last ping was answered, in Unix ns
	if r.be.Shard() != 0 {
		r.scheds[2].Start("server", func(th *threads.Thread) { r.net.Endpoint(2).Await(th, &pings, 100) })
		_ = r.m.Run()
		os.Exit(0)
	}
	r.scheds[0].Start("client", func(th *threads.Thread) {
		ep := r.net.Endpoint(0)
		for i := range 100 {
			ep.Request(th, 2, hPing, [4]uint64{uint64(i)}, nil, false)
			ep.Await(th, &acks, uint64(i+1))
			answered.Store(time.Now().UnixNano())
		}
	})
	err := r.m.Run()
	took := time.Since(time.Unix(0, answered.Load()))
	t.Logf("Run after %v: %v", took, err)
	const want = "netlive: shard 1 exited: signal: killed"
	if !strings.Contains(fmt.Sprint(err), want) || took > 2*time.Second || acks.Value() != 4 {
		t.Fatalf("Run returned %v %v after the 4th of %d answered pings, want an error naming %q within 2s of the 4th", err, took, acks.Value(), want)
	}
	for _, c := range r.be.children {
		if c.ProcessState == nil {
			t.Fatalf("worker process %d outlived the parent's Run", c.Process.Pid)
		}
	}
}

// TestSocketWriterFails kills a socket link's connection while its writer is
// blocked with frames still queued: the frame in the failed write, every
// queued frame and every later push are dropped and counted, flush returns
// with all of them accounted for, and the link's one error names the shard.
func TestSocketWriterFails(t *testing.T) {
	a, b := bareShards(t, func(o *Options) { o.DisableShm = true })
	p := a.peers[1]
	const queued, later = 64, 8
	for i := 0; i < queued; i++ {
		p.push(outFrame{kind: kStats, buf: wire.Get(64 << 10)})
	}
	// The writer dials shard 1, whose listener nobody serves: the connection
	// waits in the backlog, and the writer blocks once the socket buffer is
	// full, a few frames in. Take the connection and close it unread.
	conn, err := b.ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	if p.flush(); p.sent.Load() != p.queued.Load() {
		t.Fatalf("flush: %d of %d frames accounted for", p.sent.Load(), p.queued.Load())
	}
	for i := 0; i < later; i++ {
		p.push(outFrame{kind: kStats, buf: wire.Get(64)})
	}
	ctr := a.MetricsSnapshot().Counter
	out, dropped := ctr(metrics.CtrFramesOut), ctr(metrics.CtrLinkDropped)
	if out+dropped != queued+later || out >= queued/2 {
		t.Fatalf("net.frames.out = %d, net.link.dropped = %d: want all %d frames counted, most of them dropped", out, dropped, queued+later)
	}
	p.mu.Lock()
	left, closed := p.q.Len(), p.closed
	p.mu.Unlock()
	if left != 0 || !closed {
		t.Fatalf("%d frames left queued, link closed = %v: want none and closed", left, closed)
	}
	err = a.inner.Err()
	t.Logf("%d frames out, %d dropped: %v", out, dropped, err)
	if err == nil || strings.Count(err.Error(), "shard 1") != 1 || strings.Contains(err.Error(), "\n") {
		t.Fatalf("Err = %v, want one error naming shard 1", err)
	}
}
