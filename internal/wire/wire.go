// Package wire owns the allocation-free plumbing of the message path:
// pooled, reference-counted payload buffers and the ring queues the machine
// and live-transport layers build their inboxes from.
//
// # Ownership discipline
//
// A Buf is acquired with Get (reference count 1) and travels the wire path
// by ownership transfer: whoever holds the last reference calls Release,
// which recycles the buffer into a size-classed sync.Pool. The contract each
// layer follows (documented in DESIGN.md's "wire-path ownership discipline"
// section):
//
//   - The sender marshals into a fresh Buf and transfers it to the message
//     layer; after the send call returns, the sender must not touch it.
//   - The receiving handler may read the payload only during its
//     run-to-completion execution. The message layer releases the buffer
//     when the handler returns.
//   - A handler that needs the bytes after returning (for example to hand
//     them to a freshly spawned thread) must Retain the buffer and Release
//     it when done — or copy the bytes out.
//
// Violations are observable: a recycled buffer is handed to a later sender,
// so a stale reader races with the new writer and the race detector (or the
// conformance suite's payload-recycling case) reports it.
//
// A Buf always owns its memory. A link that writes into memory of its own —
// a shared-memory ring slot — encodes the message there directly, with no Buf.
package wire

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// classSizes are the pooled buffer capacities. Payloads above the largest
// class are allocated directly and not recycled (rare: the static buffer
// area itself is only 64 KiB).
var classSizes = [...]int{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10}

var pools [len(classSizes)]sync.Pool

// Buf is a pooled, reference-counted payload buffer.
type Buf struct {
	data  []byte // full-capacity backing store
	n     int    // current payload length
	class int8   // pool index; -1 oversize (not recycled)
	refs  atomic.Int32
}

// Get returns a buffer holding n payload bytes (contents undefined) with a
// reference count of one.
//
//mpmd:coldpath allocates only on a pool miss; the steady state recycles pooled buffers
func Get(n int) *Buf {
	for i, size := range classSizes {
		if n <= size {
			b, _ := pools[i].Get().(*Buf)
			if b == nil {
				b = &Buf{data: make([]byte, size), class: int8(i)}
			}
			b.n = n
			b.refs.Store(1)
			return b
		}
	}
	b := &Buf{data: make([]byte, n), class: -1}
	b.n = n
	b.refs.Store(1)
	return b
}

// Copy returns a buffer initialized to a copy of p.
func Copy(p []byte) *Buf {
	b := Get(len(p))
	copy(b.data, p)
	return b
}

// Bytes returns the payload as a slice of length Len. The slice is valid
// only while the caller holds a reference.
func (b *Buf) Bytes() []byte { return b.data[:b.n] }

// Len returns the payload length.
func (b *Buf) Len() int { return b.n }

// Retain adds a reference.
func (b *Buf) Retain() {
	if b.refs.Add(1) <= 1 {
		panic("wire: Retain of released buffer")
	}
}

// Release drops a reference; the last release recycles the buffer. Using
// the buffer after the final Release is a use-after-free on the pooled
// backing store.
func (b *Buf) Release() {
	switch r := b.refs.Add(-1); {
	case r > 0:
		return
	case r < 0:
		panic(fmt.Sprintf("wire: buffer over-released (refs %d)", r))
	}
	if b.class >= 0 {
		pools[b.class].Put(b)
	}
}

// Ring is an unbounded FIFO queue over a circular slice: push appends, pop
// removes from the front, both O(1) with amortized growth — the head-index
// replacement for the shift-on-pop queues the inbox and notify paths used
// to run (O(n²) to drain, one slide per pop). The zero value is ready to
// use. Not safe for concurrent use; callers hold their own locks.
type Ring[T any] struct {
	buf  []T
	head int
	n    int
	// low counts consecutive pops that observed occupancy below a quarter
	// of the backing array — the shrink hysteresis (see Pop).
	low int
}

// Len reports the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v at the tail, growing the backing slice when full.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

// Pop removes and returns the head element; ok is false when empty. The
// vacated slot is zeroed so popped payloads do not leak through the backing
// array.
//
// Shrink policy: one burst must not pin its peak memory for the life of the
// queue, but a fill/drain cycle must not thrash either (halving eagerly at
// ¼ occupancy made every deep drain pay reallocation and copy — a measured
// 2× regression in the inbox drain benchmark). So the backing array halves
// only after *sustained* low occupancy: a full capacity's worth of
// consecutive pops all observing the queue below a quarter full. A single
// deep drain never trips it; steady low traffic over an oversized ring
// walks the capacity back down to the floor, one cheap halving at a time.
func (r *Ring[T]) Pop() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	v = r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	if len(r.buf) > minRingCap {
		if r.n < len(r.buf)/4 {
			if r.low++; r.low > len(r.buf) {
				r.resize(len(r.buf) / 2)
				r.low = 0
			}
		} else {
			r.low = 0
		}
	}
	return v, true
}

// Cap reports the backing array's capacity (tests; shrink observability).
func (r *Ring[T]) Cap() int { return len(r.buf) }

// minRingCap is the smallest backing array the shrink path keeps (and the
// smallest growth target), so a queue oscillating around a few elements
// never reallocates in either direction.
const minRingCap = 64

func (r *Ring[T]) grow() {
	r.resize(max(minRingCap, 2*len(r.buf)))
	r.low = 0
}

// resize moves the queued elements into a backing array of the given size
// (which must hold them) with the head rewound to 0.
//
//mpmd:coldpath amortized capacity change; the steady state stays within the backing array
func (r *Ring[T]) resize(size int) {
	next := make([]T, size)
	for i := 0; i < r.n; i++ {
		next[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf = next
	r.head = 0
}
