package wire

import (
	"testing"
)

func TestGetSizesAndClasses(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 1024, 70000, 1 << 20} {
		b := Get(n)
		if b.Len() != n {
			t.Fatalf("Get(%d).Len() = %d", n, b.Len())
		}
		if len(b.Bytes()) != n {
			t.Fatalf("Get(%d) Bytes length %d", n, len(b.Bytes()))
		}
		b.Release()
	}
}

func TestCopy(t *testing.T) {
	src := []byte("hello wire path")
	b := Copy(src)
	src[0] = 'X'
	if string(b.Bytes()) != "hello wire path" {
		t.Fatalf("Copy aliases the source: %q", b.Bytes())
	}
	b.Release()
}

func TestRefcountLifecycle(t *testing.T) {
	b := Get(64)
	b.Retain()
	b.Release()
	b.Release() // recycles
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("over-release did not panic")
			}
		}()
		b.Release()
	}()
}

func TestRecycleReuse(t *testing.T) {
	b := Get(100)
	p := &b.data[0]
	b.Release()
	c := Get(200) // same class (256)
	if &c.data[0] != p {
		t.Skip("pool did not hand back the same buffer (GC or scheduling); nothing to assert")
	}
	if c.Len() != 200 {
		t.Fatalf("recycled buffer Len %d, want 200", c.Len())
	}
	c.Release()
}

func TestRingFIFO(t *testing.T) {
	var r Ring[int]
	if _, ok := r.Pop(); ok {
		t.Fatal("Pop on empty ring reported ok")
	}
	// Interleave pushes and pops so the ring wraps repeatedly.
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < round%7+1; i++ {
			r.Push(next)
			next++
		}
		for r.Len() > round%3 {
			v, ok := r.Pop()
			if !ok {
				t.Fatal("Pop failed with elements queued")
			}
			if v != want {
				t.Fatalf("popped %d, want %d (FIFO violated)", v, want)
			}
			want++
		}
	}
	for {
		v, ok := r.Pop()
		if !ok {
			break
		}
		if v != want {
			t.Fatalf("drain popped %d, want %d", v, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d elements, pushed %d", want, next)
	}
}

func TestRingPopZeroesSlot(t *testing.T) {
	var r Ring[*int]
	x := 7
	r.Push(&x)
	if v, ok := r.Pop(); !ok || *v != 7 {
		t.Fatal("bad pop")
	}
	if r.buf[0] != nil {
		t.Fatal("popped slot not zeroed; payload leaks through backing array")
	}
}

// TestRingShrinksOnDrain: a burst grows the backing array; sustained low
// traffic afterwards releases the capacity instead of pinning the burst's
// peak memory for the life of the queue. (A single fill/drain cycle keeps
// its capacity — that is the anti-thrash hysteresis, also asserted here.)
func TestRingShrinksOnDrain(t *testing.T) {
	var r Ring[int]
	const burst = 4096
	for i := 0; i < burst; i++ {
		r.Push(i)
	}
	peak := r.Cap()
	if peak < burst {
		t.Fatalf("cap %d after %d pushes", peak, burst)
	}
	for i := 0; i < burst; i++ {
		v, ok := r.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d: got %d,%v", i, v, ok)
		}
	}
	// One deep drain alone must not thrash the capacity away...
	if c := r.Cap(); c < peak/2 {
		t.Fatalf("cap collapsed to %d during a single drain (peak %d): shrink too eager", c, peak)
	}
	// ...but steady low-occupancy traffic walks it back down to the floor.
	seq := burst
	for i := 0; i < 16*peak; i++ {
		r.Push(seq)
		if v, ok := r.Pop(); !ok || v != seq {
			t.Fatalf("cycle %d: got %d,%v want %d", i, v, ok, seq)
		}
		seq++
		if r.Cap() == minRingCap {
			break
		}
	}
	if c := r.Cap(); c != minRingCap {
		t.Fatalf("cap still %d after sustained low occupancy (peak %d): burst memory pinned", c, peak)
	}
	// The queue must remain fully usable after shrinking.
	for i := 0; i < 100; i++ {
		r.Push(i)
	}
	for i := 0; i < 100; i++ {
		if v, ok := r.Pop(); !ok || v != i {
			t.Fatalf("post-shrink pop %d: got %d,%v", i, v, ok)
		}
	}
}

// TestRingShrinkPreservesOrderAcrossWrap: shrink with a wrapped head keeps
// FIFO order intact.
func TestRingShrinkPreservesOrderAcrossWrap(t *testing.T) {
	var r Ring[int]
	seq := 0
	// Wrap the head: push/pop cycles leave head mid-array.
	for i := 0; i < 3*minRingCap/2; i++ {
		r.Push(i)
	}
	for i := 0; i < minRingCap; i++ {
		v, _ := r.Pop()
		if v != seq {
			t.Fatalf("got %d want %d", v, seq)
		}
		seq++
	}
	// Grow big, then drain and check order the whole way down.
	base := 3 * minRingCap / 2
	for i := 0; i < 2048; i++ {
		r.Push(base + i)
	}
	for {
		v, ok := r.Pop()
		if !ok {
			break
		}
		if v != seq {
			t.Fatalf("got %d want %d (cap %d)", v, seq, r.Cap())
		}
		seq++
	}
}
