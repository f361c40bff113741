//go:build unix

// Shared-memory shard rings: the zero-syscall data path of a link between
// co-resident shards. Each ordered shard pair (i, j) gets one mmap'd
// single-producer single-consumer byte ring per direction, created by the
// parent in the rendezvous directory before re-exec and attached by every
// shard at New. A cross-shard packet is encoded by the sender straight into
// the ring slot it reserved (FrameMarshaler.EncodeWire), published with an
// atomic cursor store, and consumed in place on the receiving shard — the same
// packet bytes a socket link carries, minus the two syscalls per frame. A
// packet too large for one slot is staged once and published as consecutive
// fragment records.
//
// Who consumes: the thread that waits. A proc of the shard that parks and
// leaves its node idle polls the shard's inbound rings itself before it
// blocks (shmIdlePoll, installed as the inner live backend's idle poll), so a
// packet for an idle node goes from the ring to that node's own goroutine
// with no goroutine hand-off. The per-ring reader goroutine (shmReadLoop) is
// the consumer of last resort: it steps back while any proc polls, takes the
// ring over when the last one stops, and is what drains a ring whose nodes are
// all busy. One consumer lock per ring (shmRx.mu) makes the two callers of
// the one drain routine exclude each other.
//
// The protocol is futex-free: a waiting consumer spins a bounded number of
// yields — an idle proc its share, the reader the rest — then the reader
// publishes a "parked" flag in the shared header and blocks; a producer that
// observes the flag (and wins the clear) sends a kDoorbell control frame over
// the existing peer socket. Under sustained load the flag is never set and no
// socket traffic happens at all.
package netlive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Ring file layout: a 256-byte header, then capB data bytes. The cursor
// fields sit on separate cache lines so producer and consumer do not
// false-share. tail and head are free-running byte counts (never wrapped),
// so full/empty are unambiguous: used = tail - head.
const (
	shmMagic   = 0x474e49524d48531 // "SHMRING" as a number
	shmVersion = 3                 // 2: the recFrag flag and fragment records; 3: the gone flag
	shmHdrSize = 256

	offMagic   = 0
	offVersion = 8
	offCapB    = 16
	offTail    = 64 // producer cursor (free-running bytes)
	offHead    = 128
	offParked  = 192
	offGone    = 196 // set once no consumer will drain the ring again

	// recHdrLen is the per-record header, four u32 words. Word 0 is the
	// record length (header included, padding excluded), with recFrag or'ed
	// in on a fragment. A whole record continues src, dst, size — so the
	// bytes after word 0 are exactly a packet body, header and payload. A
	// fragment record continues total, at, 0: its payload is the bytes
	// [at, at+len) of a packet body of total bytes, and the fragments of one
	// packet are consecutive records in increasing at. Records are 8-byte
	// aligned, at most a quarter of the ring, and never straddle the wrap
	// point; a wrapMarker in word 0 means "skip to offset 0".
	recHdrLen  = 16
	recFrag    = uint32(1) << 31
	wrapMarker = ^uint32(0)

	// defaultRingBytes / minRingBytes bound the data area. The default
	// comfortably holds hundreds of in-flight 1 KiB bulk frames; the floor
	// keeps the contiguity invariant (one record <= a quarter of the ring)
	// satisfiable for every pooled frame class tests actually push through.
	defaultRingBytes = 1 << 20
	minRingBytes     = 4 << 10

	// shmSpinIters bounds the consumer's first spin stage: in-process yields
	// (runtime.Gosched), which cost almost nothing and catch a producer
	// sharing this Go scheduler (the in-process two-shard rigs).
	shmSpinIters = 8
	// shmYieldIters bounds the second stage: OS-level yields (sched_yield),
	// which hand the core to the peer shard's *process*. On few-core hosts
	// this is what makes the ring pay off — a sustained cross-process
	// request/reply stream turns into cheap scheduler ping-pong instead of a
	// doorbell (socket round trip) per frame. Each iteration also yields
	// in-process so procs and their handlers keep running. Only after
	// both stages come up dry does the consumer park and wait for a doorbell.
	shmYieldIters = 4096
	// shmProcIters is an idle proc's share of that one budget: it looks at the
	// rings this many times (the first shmSpinIters with in-process yields
	// only, like the reader) and then blocks; the reader, which counts the
	// proc's looks as spent, spins the rest before it parks. The time from a
	// ring running dry to the doorbell park is what it was with one consumer.
	shmProcIters = shmSpinIters + shmYieldIters/2
)

func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// spinPause is what a consumer does between look i and the next at a dry
// ring: always the in-process yield, from the second stage on the OS yield
// too. The reader and the idle procs pause alike.
func spinPause(i int) {
	runtime.Gosched()
	if i >= shmSpinIters {
		osYield()
	}
}

// shmRing is one mapped directed ring. The file descriptor is closed right
// after mapping (the mapping keeps the pages alive); unmap is the only
// teardown.
type shmRing struct {
	raw    []byte
	data   []byte
	capB   uint64
	tail   *atomic.Uint64 // producer cursor in the mapped header, read by the peer process
	head   *atomic.Uint64 // consumer cursor in the mapped header
	parked *atomic.Uint32 // consumer park flag, CAS'd by producers
	gone   *atomic.Uint32 // consumer gone flag, read by a producer waiting for room
}

func mapRing(raw []byte) *shmRing {
	return &shmRing{
		raw:    raw,
		data:   raw[shmHdrSize:],
		capB:   (*atomic.Uint64)(unsafe.Pointer(&raw[offCapB])).Load(),
		tail:   (*atomic.Uint64)(unsafe.Pointer(&raw[offTail])),
		head:   (*atomic.Uint64)(unsafe.Pointer(&raw[offHead])),
		parked: (*atomic.Uint32)(unsafe.Pointer(&raw[offParked])),
		gone:   (*atomic.Uint32)(unsafe.Pointer(&raw[offGone])),
	}
}

func (r *shmRing) unmap() {
	if r.raw != nil {
		_ = syscall.Munmap(r.raw)
		r.raw = nil
	}
}

// shmPrefaultSink defeats dead-load elimination in prefault.
var shmPrefaultSink byte

// prefault walks every page of the mapping once so first-touch faults happen
// at setup, not inside the measured traffic. The producing shard write-touches
// its outbound rings — safe because the ring is strictly SPSC, the peer never
// stores into the data area, and nothing below the published tail is visible
// yet — while inbound rings get read faults only: the consumer never stores
// into the data area either, so a read mapping is all its hot path needs.
func (r *shmRing) prefault(write bool) {
	const page = 4096
	for off := 0; off < len(r.raw); off += page {
		if write {
			r.raw[off] |= 0
		} else {
			shmPrefaultSink += r.raw[off]
		}
	}
}

// createRingFile creates and initializes one ring file, its magic last.
func createRingFile(path string, dataBytes uint64) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return err
	}
	defer f.Close()
	size := shmHdrSize + int(dataBytes)
	if err := f.Truncate(int64(size)); err != nil {
		return err
	}
	raw, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return err
	}
	(*atomic.Uint64)(unsafe.Pointer(&raw[offVersion])).Store(shmVersion)
	(*atomic.Uint64)(unsafe.Pointer(&raw[offCapB])).Store(dataBytes)
	(*atomic.Uint64)(unsafe.Pointer(&raw[offMagic])).Store(shmMagic)
	return syscall.Munmap(raw)
}

// tryAttach opens and maps one ring file the parent made. The parent creates
// every ring before it spawns a worker, so there is nothing to wait for: a
// ring that is missing or not initialized is an error.
func tryAttach(path string) (_ *shmRing, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("netlive: attach shm ring %s: %w", path, err)
		}
	}()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < shmHdrSize {
		return nil, fmt.Errorf("short file (%d bytes)", st.Size())
	}
	raw, err := syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, err
	}
	if (*atomic.Uint64)(unsafe.Pointer(&raw[offMagic])).Load() != shmMagic {
		_ = syscall.Munmap(raw)
		return nil, errors.New("not initialized")
	}
	if v := (*atomic.Uint64)(unsafe.Pointer(&raw[offVersion])).Load(); v != shmVersion {
		_ = syscall.Munmap(raw)
		return nil, fmt.Errorf("ring version %d, want %d", v, shmVersion)
	}
	r := mapRing(raw)
	if uint64(st.Size()) != shmHdrSize+r.capB || r.capB%8 != 0 || r.capB == 0 {
		_ = syscall.Munmap(raw)
		return nil, fmt.Errorf("corrupt ring geometry (file %d, cap %d)", st.Size(), r.capB)
	}
	return r, nil
}

// shmTx is the producer end of one outbound ring. mu serializes this
// shard's many sender goroutines onto the single-producer cursor; the
// consumer is the peer process, reached only through the shared atomics.
type shmTx struct {
	r    *shmRing
	peer int

	mu   sync.Mutex
	tail uint64 //mpmdvet:guard mu — local copy of the published producer cursor
	// closed is set at teardown, and when the ring's consumer is gone: every
	// later frame is dropped. The socket is no alternative — it leads to the
	// same process.
	closed bool //mpmdvet:guard mu

	// quit is teardown's word to reserve's full-ring wait, without the lock,
	// so that teardown is never blocked behind a sender waiting for room.
	quit atomic.Bool
}

// shmRx is the consumer end of one inbound ring. Two kinds of goroutine
// consume it — the shard's idle procs and the ring's reader — and mu, the
// consumer lock, is held around every drain: the ring stays single-consumer,
// one holder at a time.
type shmRx struct {
	r    *shmRing
	peer int
	wake chan struct{} // doorbell, capacity 1
	// handback (capacity 1) is where the last idle proc to stop polling — and
	// shutdown — tells the reader, which waits on it while procs poll, that
	// the ring is its again.
	handback chan struct{}

	mu   sync.Mutex
	head uint64    //mpmdvet:guard mu — local copy of the published consumer cursor
	asm  *wire.Buf //mpmdvet:guard mu — reassembly of a fragmented packet in progress
	got  int       //mpmdvet:guard mu — bytes of it received so far
	// dead is set when the ring is abandoned (its bytes stopped making sense)
	// and at shutdown, before the mapping goes: no consumer touches the ring
	// after it.
	dead bool //mpmdvet:guard mu
}

// shmPlane is a backend's shared-memory transport state: one rx per peer
// shard (nil at the self index); each peer holds the tx of its link.
type shmPlane struct {
	rx     []*shmRx
	stop   atomic.Bool
	stopCh chan struct{}
	wg     sync.WaitGroup

	// pollers counts the shard's procs inside shmIdlePoll; the readers step
	// back while it is non-zero. spent is how many looks the last one to
	// leave had taken, which the readers count against the spin budget.
	pollers atomic.Int32
	spent   atomic.Int32
}

func (b *Backend) closeRings(p *shmPlane) {
	for s, rx := range p.rx {
		if rx != nil {
			rx.r.unmap()
		}
		if pr := b.peers[s]; pr != nil && pr.tx != nil {
			pr.tx.r.unmap()
		}
	}
}

func (b *Backend) ringPath(from, to int) string {
	return fmt.Sprintf("%s/ring-%d-%d.shm", b.dir, from, to)
}

// shmSetup builds the ring mesh, and the parent alone decides whether there
// is one: unless DisableShm is set it creates every ring file before any
// worker exists. A worker attaches every one of its rings (or fails New) when
// the parent's ring to it exists, and otherwise keeps every link on the
// socket, so a pair never disagrees about a direction's path (which would
// reorder or strand frames).
func (b *Backend) shmSetup() error {
	if b.shard == 0 {
		if b.opts.DisableShm {
			return nil
		}
		ringBytes := b.opts.ShmRingBytes
		if ringBytes <= 0 {
			ringBytes = defaultRingBytes
		}
		ringBytes = int(align8(uint64(max(ringBytes, minRingBytes))))
		for i := 0; i < b.shards; i++ {
			for j := 0; j < b.shards; j++ {
				if i == j {
					continue
				}
				if err := createRingFile(b.ringPath(i, j), uint64(ringBytes)); err != nil {
					return fmt.Errorf("netlive: create shm ring %d->%d: %w", i, j, err)
				}
			}
		}
	} else if _, err := os.Stat(b.ringPath(0, b.shard)); errors.Is(err, os.ErrNotExist) {
		return nil // the parent made no rings
	}
	p := &shmPlane{
		rx:     make([]*shmRx, b.shards),
		stopCh: make(chan struct{}),
	}
	for s := 0; s < b.shards; s++ {
		if s == b.shard {
			continue
		}
		out, err := tryAttach(b.ringPath(b.shard, s))
		var in *shmRing
		if err == nil {
			b.peers[s].tx = &shmTx{r: out, peer: s}
			in, err = tryAttach(b.ringPath(s, b.shard))
		}
		if err != nil {
			b.closeRings(p)
			return err
		}
		p.rx[s] = &shmRx{r: in, peer: s, wake: make(chan struct{}, 1), handback: make(chan struct{}, 1), head: in.head.Load()}
		out.prefault(true)
		in.prefault(false)
	}
	b.shm = p
	b.inner.SetIdlePoll(b.shmIdlePoll)
	return nil
}

// ShmActive reports whether the shared-memory rings are carrying this
// backend's cross-shard packets (false when the parent made none, or on
// platforms without them).
func (b *Backend) ShmActive() bool { return b.shm != nil }

// shmStart launches one reader goroutine per inbound ring. Deferred to Run
// for the same happens-before reason as acceptLoop: no frame may dispatch
// into a half-built machine (the other consumers, the idle procs, do not run
// before Run either).
func (b *Backend) shmStart() {
	p := b.shm
	if p == nil {
		return
	}
	for _, rx := range p.rx {
		if rx != nil {
			p.wg.Add(1)
			go b.shmReadLoop(rx)
		}
	}
}

// shmShutdown stops the readers, closes the producers and the consumer ends
// behind their locks (the barrier that no send or drain still touches the
// mapping; a consumer end is also marked gone for its producer), then unmaps
// every ring. A straggler proc that sends afterwards gets a closed link's
// drops, and one that parks idle finds every ring dead.
func (b *Backend) shmShutdown() {
	p := b.shm
	if p == nil || !p.stop.CompareAndSwap(false, true) {
		return
	}
	close(p.stopCh)
	p.handBack()
	for _, pr := range b.peers {
		if pr == nil || pr.tx == nil {
			continue
		}
		tx := pr.tx
		tx.quit.Store(true)
		tx.mu.Lock()
		tx.closed = true
		tx.mu.Unlock()
	}
	p.wg.Wait()
	for _, rx := range p.rx {
		if rx != nil {
			rx.mu.Lock()
			rx.dead = true
			rx.r.gone.Store(1)
			rx.mu.Unlock()
		}
	}
	b.closeRings(p)
}

// shmWake rings a parked consumer's local doorbell (the kDoorbell frame
// handler).
func (b *Backend) shmWake(s int) {
	if p := b.shm; p != nil { // s is a peer: readLoop checked the frame's shard word
		poke(p.rx[s].wake)
	}
}

// send puts one packet on the ring: it reserves a slot, encodes the payload
// straight into it, publishes the new tail, and rings the doorbell if the
// consumer is parked. A packet over the contiguity limit goes as fragments;
// one that gets no room (reserve) is dropped and counted.
//
//mpmd:hotpath
func (tx *shmTx) send(b *Backend, src, dst, size int, wp transport.FrameMarshaler) {
	n := wp.WireLen()
	rec := align8(recHdrLen + uint64(n))
	if rec > tx.r.capB/4 {
		tx.sendFragments(b, stagePacket(src, dst, size, wp))
		return
	}
	tx.mu.Lock()
	off, ok := tx.reserve(b, rec)
	if !ok {
		tx.mu.Unlock()
		stagePacket(src, dst, size, wp).Release() // consumes wp
		b.dropped()
		return
	}
	data := tx.r.data
	binary.LittleEndian.PutUint32(data[off:], uint32(recHdrLen+uint64(n)))
	putPacketHdr(data[off+4:], src, dst, size)
	wp.EncodeWire(data[off+recHdrLen : off+recHdrLen+uint64(n)])
	depth := tx.publish(rec)
	tx.mu.Unlock()
	b.met.Add(metrics.CtrShmFramesOut, 1)
	b.met.Add(metrics.CtrShmBytesOut, int64(recHdrLen+uint64(n)))
	b.met.Raise(metrics.GgeShmRingDepth, int64(depth))
	tx.kick(b)
}

// sendFragments publishes a staged packet body as consecutive fragment
// records under one hold of tx.mu, each published (and the consumer kicked)
// as it is written, which lets a packet larger than the whole ring through.
// When no room comes (reserve), what is left of the packet is dropped.
//
//mpmd:coldpath the rare packet over a quarter of the ring: one staged copy
func (tx *shmTx) sendFragments(b *Backend, f *wire.Buf) {
	defer f.Release()
	body := f.Bytes()
	chunk := int(tx.r.capB/4)&^7 - recHdrLen
	frags, recBytes := int64(0), int64(0)
	tx.mu.Lock()
	defer tx.mu.Unlock()
	for at := 0; at < len(body); at += chunk {
		part := body[at:min(at+chunk, len(body))]
		rec := align8(recHdrLen + uint64(len(part)))
		off, ok := tx.reserve(b, rec)
		if !ok {
			b.dropped()
			return
		}
		data := tx.r.data
		binary.LittleEndian.PutUint32(data[off:], uint32(recHdrLen+len(part))|recFrag)
		putPacketHdr(data[off+4:], len(body), at, 0) // total, at, 0
		copy(data[off+recHdrLen:], part)
		tx.publish(rec)
		tx.kick(b)
		frags++
		recBytes += int64(recHdrLen + len(part))
	}
	b.met.Add(metrics.CtrShmFramesOut, 1)
	b.met.Add(metrics.CtrShmFragsOut, frags)
	b.met.Add(metrics.CtrShmBytesOut, recBytes)
}

// publish makes the record just written at the reserved offset visible to
// the consumer and returns the ring occupancy in bytes.
//
//mpmdvet:locked tx.mu
func (tx *shmTx) publish(rec uint64) uint64 {
	tx.tail += rec
	tx.r.tail.Store(tx.tail)
	return tx.tail - tx.r.head.Load()
}

// kick rings the doorbell when the consumer has declared itself parked; the
// CAS makes one producer win. publish's tail.Store before this load, against
// the consumer's parked.Store-then-tail.Load, loses no wake-up.
//
//mpmd:hotpath
func (tx *shmTx) kick(b *Backend) {
	if tx.r.parked.Load() == 1 && tx.r.parked.CompareAndSwap(1, 0) {
		b.ringDoorbell(tx.peer)
	}
}

// reserve finds rec contiguous bytes, writing a wrap marker when the tail
// would straddle the end. Called with tx.mu held. A full ring waits for its
// consumer to free room — spinning briefly, then looking every 100 µs — and
// gives up (false) at teardown, when the run is aborted, or when the consumer
// is gone, which closes the link and aborts the run. A closed ring reserves
// nothing.
//
//mpmdvet:locked tx.mu
func (tx *shmTx) reserve(b *Backend, rec uint64) (uint64, bool) {
	if tx.closed {
		return 0, false
	}
	r := tx.r
	capB := r.capB
	for spins := 0; ; spins++ {
		off := tx.tail % capB
		pad := uint64(0)
		if off+rec > capB {
			pad = capB - off
		}
		if tx.tail+pad+rec-r.head.Load() <= capB {
			if pad > 0 {
				binary.LittleEndian.PutUint32(r.data[off:], wrapMarker)
				tx.tail += pad
				off = 0
			}
			return off, true
		}
		if tx.quit.Load() {
			return 0, false
		}
		if r.gone.Load() != 0 {
			tx.closed = true
			b.shmConsumerGone(tx.peer)
			return 0, false
		}
		if spins < 64 {
			runtime.Gosched()
			continue
		}
		select {
		case <-b.inner.Aborted():
			return 0, false
		default:
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// shmConsumerGone aborts the run for a link whose ring consumer is gone while
// a sender waits for room in it.
//
//mpmd:coldpath runs once per ring, when reserve closes it
func (b *Backend) shmConsumerGone(shard int) {
	b.inner.Abort(fmt.Errorf("netlive: shm ring to shard %d: its consumer is gone; the link's frames are dropped", shard))
}

// shmReadLoop is the per-inbound-ring reader, the consumer of last resort:
// drain published records and wait (spin, then park) when the ring runs dry —
// but only while no proc of the shard is polling the rings itself (see
// shmWaitData). It ends at shutdown, or when the ring has been abandoned.
func (b *Backend) shmReadLoop(rx *shmRx) {
	defer b.shm.wg.Done()
	for {
		rx.mu.Lock()
		if rx.dead {
			rx.mu.Unlock()
			return
		}
		head := rx.head
		if tail := rx.r.tail.Load(); tail != head {
			b.shmDrain(rx, tail, metrics.CtrShmFramesInReader)
			rx.mu.Unlock()
			continue
		}
		rx.mu.Unlock()
		if !b.shmWaitData(rx, head) {
			return
		}
	}
}

// shmIdlePoll is the inner live backend's idle poll (live.SetIdlePoll): a
// proc that left its node idle drains every inbound ring of the shard it can
// lock (one another consumer drains is skipped) until woken says it has its
// wake-up, or its share of the spin budget is spent.
func (b *Backend) shmIdlePoll(woken func() bool) {
	p := b.shm
	p.pollers.Add(1)
	i := 0
	for ; i < shmProcIters && !p.stop.Load(); i++ {
		for _, rx := range p.rx {
			if rx == nil {
				continue
			}
			if !rx.mu.TryLock() {
				continue // another consumer is draining it
			}
			if !rx.dead {
				if tail := rx.r.tail.Load(); tail != rx.head {
					b.shmDrain(rx, tail, metrics.CtrShmFramesInProc)
					b.met.Add(metrics.CtrShmSpinWakes, 1) // a waiting consumer found data while spinning
				}
			}
			rx.mu.Unlock()
		}
		if woken() {
			break
		}
		spinPause(i)
	}
	p.spent.Store(int32(i))
	if p.pollers.Add(-1) == 0 {
		// The last one out hands the rings back: a busy shard has no idle proc
		// to look at them, and a blocked one is no use to a producer.
		p.handBack()
	}
}

// handBack releases every reader that has stepped back; one that is not
// waiting yet finds the token when it does.
func (p *shmPlane) handBack() {
	for _, rx := range p.rx {
		if rx != nil {
			poke(rx.handback)
		}
	}
}

// shmDrain consumes the records in [rx.head, tail) for the holder of the
// consumer lock; by counts the frames it consumes (CtrShmFramesInProc for a
// proc, CtrShmFramesInReader for the reader). The handler's payload points
// into the mapped ring, valid for the call only, and head is published
// after the handler returns, so no slot is reused under it. Cursors and record
// headers come from another process: each is held against the ring geometry
// and the published tail before anything is indexed with it, and a value that
// does not fit abandons the ring (false, and rx.dead).
//
//mpmd:hotpath
//mpmdvet:locked rx.mu
func (b *Backend) shmDrain(rx *shmRx, tail uint64, by metrics.Ctr) bool {
	r := rx.r
	data := r.data
	head := rx.head
	frames, frags, recBytes := int64(0), int64(0), int64(0)
	if tail-head > r.capB || head%8 != 0 {
		return b.shmCorrupt(rx, "cursors outside the ring", head%r.capB, uint32(tail-head))
	}
	for head != tail {
		off := head % r.capB
		word := binary.LittleEndian.Uint32(data[off:])
		if word == wrapMarker {
			if r.capB-off > tail-head {
				return b.shmCorrupt(rx, "wrap marker past the published tail", off, word)
			}
			head += r.capB - off
			rx.head = head
			r.head.Store(head)
			continue
		}
		recLen := uint64(word &^ recFrag)
		if recLen < recHdrLen || off+recLen > r.capB || align8(recLen) > tail-head {
			return b.shmCorrupt(rx, "record runs past the published tail", off, word)
		}
		if b.remote == nil {
			panic("netlive: shm packet frame before the machine installed its remote handler")
		}
		body := data[off+4 : off+recLen]
		if word&recFrag != 0 {
			frags++
			var why string
			if body, why = rx.reassemble(body); why != "" {
				return b.shmCorrupt(rx, why, off, word)
			}
		} else if rx.asm != nil {
			return b.shmCorrupt(rx, "whole record inside a fragmented packet", off, word)
		}
		if body != nil {
			if !b.dispatchPacket(rx.peer, body) {
				return b.shmCorrupt(rx, "malformed packet body", off, word)
			}
			frames++
			if rx.asm != nil {
				rx.asm.Release()
				rx.asm = nil
			}
		}
		head += align8(recLen)
		rx.head = head
		r.head.Store(head)
		recBytes += int64(recLen)
	}
	b.met.Add(by, frames)
	b.met.Add(metrics.CtrShmBytesIn, recBytes)
	if frags != 0 {
		b.met.Add(metrics.CtrShmFragsIn, frags)
	}
	return true
}

// reassemble adds one fragment — rec is its record after word 0: total, at,
// 0, then the bytes — to the packet rebuilt in rx.asm (pooled, taken at the
// at == 0 fragment): the whole body once the last is in, nil before, and a
// reason for a fragment out of sequence or a total over the frame limit.
//
//mpmd:coldpath only the rare packet over a quarter of the ring is fragmented; one copy, pooled
//mpmdvet:locked rx.mu
func (rx *shmRx) reassemble(rec []byte) (body []byte, why string) {
	total := int(binary.LittleEndian.Uint32(rec))
	at := int(binary.LittleEndian.Uint32(rec[4:]))
	part := rec[recHdrLen-4:]
	if rx.asm == nil && at == 0 {
		if total > maxFrameBytes {
			return nil, "fragmented packet over the frame limit"
		}
		rx.asm, rx.got = wire.Get(total), 0
	}
	if rx.asm == nil || total != rx.asm.Len() || at != rx.got || len(part) == 0 || at+len(part) > total {
		return nil, "fragment out of sequence"
	}
	rx.got += copy(rx.asm.Bytes()[at:], part)
	if rx.got < total {
		return nil, ""
	}
	return rx.asm.Bytes(), ""
}

// shmCorrupt ends an inbound ring: it marks it dead for every consumer and
// gone for its producer, and aborts the run with one error naming the peer. It
// returns false, shmDrain's "abandon the ring".
//
//mpmd:coldpath at most once per ring, after which its reader exits and the idle procs skip it
//mpmdvet:locked rx.mu
func (b *Backend) shmCorrupt(rx *shmRx, why string, off uint64, word uint32) bool {
	rx.dead = true
	rx.r.gone.Store(1)
	b.inner.Abort(fmt.Errorf("netlive: shm ring from shard %d abandoned: %s (record word %#x at offset %d)", rx.peer, why, word, off))
	return false
}

// shmWaitData is the reader's wait for the producer to move tail past head: a
// bounded spin of yields, then park — publish the parked flag, re-check the
// tail, and block on the doorbell. While procs of the shard poll the rings the
// reader steps back until the last hands them back, counting their looks as
// spent. Returns false on shutdown or when the ring was abandoned meanwhile; a
// true return may be spurious, and the caller looks again under the lock.
func (b *Backend) shmWaitData(rx *shmRx, head uint64) bool {
	p := b.shm
	r := rx.r
	for i := 0; i < shmSpinIters+shmYieldIters; i++ {
		if p.stop.Load() {
			return false
		}
		if p.pollers.Load() > 0 {
			<-rx.handback // shutdown hands back too, after raising stop
			rx.mu.Lock()
			dead := rx.dead
			head = rx.head
			rx.mu.Unlock()
			if dead {
				return false
			}
			// The procs' looks are the ring's dry spell so far: few when the
			// last one left with a packet, its whole share when it gave up.
			i = int(p.spent.Load()) - 1
			continue
		}
		if r.tail.Load() != head {
			b.met.Add(metrics.CtrShmSpinWakes, 1)
			return true
		}
		spinPause(i)
	}
	// Drop any stale doorbell so the park below cannot be satisfied by a
	// wakeup for data already consumed.
	select {
	case <-rx.wake:
	default:
	}
	r.parked.Store(1)
	if r.tail.Load() != head {
		r.parked.Store(0)
		b.met.Add(metrics.CtrShmSpinWakes, 1)
		return true
	}
	select {
	case <-rx.wake:
	case <-p.stopCh:
		return false
	}
	r.parked.Store(0)
	b.met.Add(metrics.CtrShmParkWakes, 1)
	return true
}

// ringDoorbell wakes shard s's parked consumer of our outbound ring via a
// kDoorbell control frame on the existing peer socket — the only moment
// the fast path touches a file descriptor.
func (b *Backend) ringDoorbell(s int) {
	b.met.Add(metrics.CtrShmDoorbells, 1)
	b.doorbell(s)
}
