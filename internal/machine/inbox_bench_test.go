package machine

import "testing"

// BenchmarkInboxDrain10k fills a node's inbox 10k deep and drains it — the
// regression guard for the O(n²) shift-on-pop queue this replaced (PopInbox
// used to slide the entire remaining queue on every pop, so a 10k-deep drain
// performed ~50M element copies; the head-index ring does 10k).
func BenchmarkInboxDrain10k(b *testing.B) {
	const depth = 10_000
	m := New(SP1997(), 1)
	n := m.Node(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < depth; k++ {
			n.pushInbox(Packet{Size: k})
		}
		for k := 0; k < depth; k++ {
			pkt, ok := n.PopInbox()
			if !ok || pkt.Size != k {
				b.Fatalf("pop %d: ok=%v size=%d (FIFO broken)", k, ok, pkt.Size)
			}
		}
	}
}

// TestInboxRingFIFO pins FIFO order and emptiness reporting across
// interleaved push/pop bursts that force the ring to wrap and grow.
func TestInboxRingFIFO(t *testing.T) {
	m := New(SP1997(), 1)
	n := m.Node(0)
	next, want := 0, 0
	for round := 0; round < 40; round++ {
		for i := 0; i <= round%11; i++ {
			n.pushInbox(Packet{Size: next})
			next++
		}
		for n.InboxLen() > round%5 {
			pkt, ok := n.PopInbox()
			if !ok || pkt.Size != want {
				t.Fatalf("pop: ok=%v size=%d want %d", ok, pkt.Size, want)
			}
			want++
		}
	}
	for {
		pkt, ok := n.PopInbox()
		if !ok {
			break
		}
		if pkt.Size != want {
			t.Fatalf("drain: size=%d want %d", pkt.Size, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d packets, pushed %d", want, next)
	}
	if _, ok := n.PopInbox(); ok {
		t.Fatal("PopInbox on empty inbox reported ok")
	}
}
