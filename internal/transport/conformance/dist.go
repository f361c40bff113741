package conformance

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/mpmd"
)

// Dist conformance: element accesses of a typed distributed array are two
// active messages on the runtime's optimized wire path, and like the
// collectives they must behave identically on every backend — every element
// type lands intact in both wire forms (message words, payload), in both
// layouts, from in-shard and cross-shard owners alike, with hundreds of
// split-phase accesses in flight, and one node's accesses reach an owner in
// the order they were issued. Results and message counts, never timings.

// distCell encodes to three words: a get's reply carries it in the message
// words, a put's request as payload.
type distCell struct {
	A int64
	B float64
	C int
}

// distBlob has no fixed encoding: it always rides as payload.
type distBlob struct {
	Name string
	Data []byte
}

const distElems = 64 // per array; four arrays make 256 futures in flight

func distF64(e int) float64     { return 1.5 * float64(e) }
func distI64(e int) int64       { return int64(7*e + 1) }
func distCellOf(e int) distCell { return distCell{A: int64(e), B: float64(e) / 2, C: -e} }
func distBlobOf(e int) distBlob {
	return distBlob{Name: fmt.Sprint("e", e), Data: bytes.Repeat([]byte{byte(e)}, 10*(e%5))}
}

// distArrays is one runtime's view of the case's four arrays. Every
// co-resident runtime builds them in this order: the order is their name on
// the wire.
type distArrays struct {
	tm *mpmd.Team
	f  *mpmd.Dist[float64]
	i  *mpmd.Dist[int64]
	c  *mpmd.Dist[distCell]
	b  *mpmd.Dist[distBlob]
}

func newDistArrays(t *testing.T, rt *core.Runtime) *distArrays {
	tm, err := mpmd.WorldTeam(rt)
	if err != nil {
		t.Fatal(err)
	}
	d := &distArrays{tm: tm}
	if d.f, err = mpmd.NewDist[float64](tm, distElems, mpmd.LayoutBlock); err != nil {
		t.Fatal(err)
	}
	if d.i, err = mpmd.NewDist[int64](tm, distElems, mpmd.LayoutCyclic); err != nil {
		t.Fatal(err)
	}
	if d.c, err = mpmd.NewDist[distCell](tm, distElems, mpmd.LayoutCyclic); err != nil {
		t.Fatal(err)
	}
	if d.b, err = mpmd.NewDist[distBlob](tm, distElems, mpmd.LayoutBlock); err != nil {
		t.Fatal(err)
	}
	return d
}

func distAccess(t *testing.T, f ShardedFactory) {
	const n = 4
	ms := f(machine.SP1997(), n)
	rts := make([]*core.Runtime, len(ms))
	for k, m := range ms {
		rts[k] = core.NewRuntime(m)
		d := newDistArrays(t, rts[k])
		for i := 0; i < n; i++ {
			rts[k].OnNode(i, func(th *mpmd.Thread) { distMember(t, d, th) })
		}
	}
	if err := collRun(rts); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// distMember is one member's program. Every element has one writer, the
// owner's left neighbour, so with two nodes a shard each member writes
// in-shard or cross-shard and reads both.
func distMember(t *testing.T, d *distArrays, th *mpmd.Thread) {
	check := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	me := d.tm.Rank(th)
	mine := func(owner int) bool { return owner == (me+1)%d.tm.Size() }
	acct := th.Node().Acct
	sent := func(since machine.Snapshot) (short, bulk, rmis int64) {
		c := acct.Delta(since).Counters
		return c[machine.CntMsgShort], c[machine.CntMsgBulk], c[machine.CntRMI]
	}

	// Word-form writes: one-word elements, synchronous and split-phase.
	// Between two barriers a member sends only its own requests and the
	// replies to its peers', so every message it counts is one of these.
	check(d.tm.Barrier(th))
	s0 := acct.Snapshot()
	var acks []*mpmd.Future[mpmd.Void]
	for e := 0; e < distElems; e++ {
		if mine(d.f.OwnerRank(e)) {
			check(d.f.Put(th, e, distF64(e)))
		}
		if mine(d.i.OwnerRank(e)) {
			f, err := d.i.PutAsync(th, e, distI64(e))
			check(err)
			acks = append(acks, f)
		}
	}
	for _, f := range acks {
		f.Wait(th)
	}
	if short, bulk, rmis := sent(s0); short < int64(len(acks)) || bulk != 0 || rmis != 0 {
		t.Errorf("member %d, one-word puts: %d short AMs, %d bulk, %d RMIs; want short only (at least %d) and no cc.invoke", me, short, bulk, rmis, len(acks))
	}

	// Payload-form writes: the three-word cell (a put's request has one spare
	// word) and the variable-size blob.
	check(d.tm.Barrier(th))
	s0 = acct.Snapshot()
	acks, puts := acks[:0], 0
	for e := 0; e < distElems; e++ {
		if mine(d.c.OwnerRank(e)) {
			check(d.c.Put(th, e, distCellOf(e)))
			puts++
		}
		if mine(d.b.OwnerRank(e)) {
			f, err := d.b.PutAsync(th, e, distBlobOf(e))
			check(err)
			acks = append(acks, f)
			puts++
		}
	}
	for _, f := range acks {
		f.Wait(th)
	}
	if _, bulk, rmis := sent(s0); bulk != int64(puts) || rmis != 0 {
		t.Errorf("member %d, payload-form puts: %d bulk AMs, %d RMIs; want %d (one per put; acknowledgements are short) and no cc.invoke", me, bulk, rmis, puts)
	}

	// Word-form reads: everyone reads every element of the three fixed-size
	// arrays back, synchronously and with all futures of an array in flight.
	check(d.tm.Barrier(th))
	s0 = acct.Snapshot()
	ff := make([]*mpmd.Future[float64], distElems)
	fi := make([]*mpmd.Future[int64], distElems)
	fc := make([]*mpmd.Future[distCell], distElems)
	fb := make([]*mpmd.Future[distBlob], distElems)
	var err error
	for e := 0; e < distElems; e++ {
		if got, err := d.i.Get(th, e); err != nil || got != distI64(e) {
			t.Errorf("member %d: int64 element %d = %v, %v", me, e, got, err)
		}
		ff[e], err = d.f.GetAsync(th, e)
		check(err)
		fi[e], err = d.i.GetAsync(th, e)
		check(err)
		fc[e], err = d.c.GetAsync(th, e)
		check(err)
	}
	if short, bulk, rmis := sent(s0); short == 0 || bulk != 0 || rmis != 0 {
		t.Errorf("member %d, word-form gets: %d short AMs, %d bulk, %d RMIs; want short only and no cc.invoke", me, short, bulk, rmis)
	}
	// The blobs join them — 256 futures outstanding at once — once every
	// member has counted: their replies are bulk.
	check(d.tm.Barrier(th))
	for e := 0; e < distElems; e++ {
		fb[e], err = d.b.GetAsync(th, e)
		check(err)
	}
	for e := 0; e < distElems; e++ {
		if got := ff[e].Wait(th); got != distF64(e) {
			t.Errorf("member %d: float64 element %d = %v", me, e, got)
		}
		if got := fi[e].Wait(th); got != distI64(e) {
			t.Errorf("member %d: int64 element %d = %v", me, e, got)
		}
		if got := fc[e].Wait(th); got != distCellOf(e) {
			t.Errorf("member %d: cell element %d = %+v", me, e, got)
		}
		want := distBlobOf(e)
		if got := fb[e].Wait(th); got.Name != want.Name || !bytes.Equal(got.Data, want.Data) {
			t.Errorf("member %d: blob element %d = %q, %d bytes", me, e, got.Name, len(got.Data))
		}
		if got, err := d.b.Get(th, e); err != nil || got.Name != want.Name || !bytes.Equal(got.Data, want.Data) {
			t.Errorf("member %d: blob element %d read synchronously = %q, %d bytes, %v", me, e, got.Name, len(got.Data), err)
		}
	}

	// Per-sender FIFO: a get issued after a put of the same element — the
	// put not yet acknowledged — observes it, in either wire form.
	check(d.tm.Barrier(th))
	slot := 0
	for !mine(d.f.OwnerRank(slot)) {
		slot++
	}
	for k := 1; k <= 16; k++ {
		ack, err := d.f.PutAsync(th, slot, float64(k))
		check(err)
		if got, err := d.f.Get(th, slot); err != nil || got != float64(k) {
			t.Errorf("member %d: get after put %d of element %d read %v, %v", me, k, slot, got, err)
		}
		ack.Wait(th)
	}
	slot = 0
	for !mine(d.b.OwnerRank(slot)) {
		slot++
	}
	for k := 1; k <= 16; k++ {
		ack, err := d.b.PutAsync(th, slot, distBlobOf(k))
		check(err)
		if got, err := d.b.Get(th, slot); err != nil || got.Name != distBlobOf(k).Name {
			t.Errorf("member %d: get after put %d of blob %d read %q, %v", me, k, slot, got.Name, err)
		}
		ack.Wait(th)
	}
	check(d.tm.Barrier(th))
}

// valueOwnership: a value the typed surface hands back is the caller's to
// keep. A receiver decodes in place and reuses capacity (method bodies do not
// retain their arguments), but a Dist element with slices and a collective's
// result are decoded into zeroed storage, so nothing decoded later — through
// a pooled access record, or into an element a reader already copied out —
// writes through a value read earlier.
func valueOwnership(t *testing.T, f ShardedFactory) {
	const n = 4
	ms := f(machine.SP1997(), n)
	rts := make([]*core.Runtime, len(ms))
	for k, m := range ms {
		rts[k] = core.NewRuntime(m)
		tm, err := mpmd.WorldTeam(rts[k])
		if err != nil {
			t.Fatal(err)
		}
		d, err := mpmd.NewDist[[]float64](tm, 2*n, mpmd.LayoutBlock)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			rts[k].OnNode(i, func(th *mpmd.Thread) { ownershipMember(t, tm, d, th) })
		}
	}
	if err := collRun(rts); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func ownershipMember(t *testing.T, tm *mpmd.Team, d *mpmd.Dist[[]float64], th *mpmd.Thread) {
	check := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	me, n := tm.Rank(th), tm.Size()
	elem := func(e, gen int) []float64 { return []float64{float64(e), float64(gen), float64(e * gen)} }
	same := slices.Equal[[]float64]
	check(d.ForEachLocal(th, func(e int, v *[]float64) { *v = elem(e, 1) }))
	check(tm.Barrier(th))

	// Two synchronous gets through the one pooled record: the first result
	// survives the second.
	next := (me + 1) % n
	a, err := d.Get(th, 2*next)
	check(err)
	b, err := d.Get(th, 2*next+1)
	check(err)
	if !same(a, elem(2*next, 1)) || !same(b, elem(2*next+1, 1)) {
		t.Errorf("member %d: elements %d and %d read %v and %v", me, 2*next, 2*next+1, a, b)
	}

	// The owner holds what its element was; the left neighbour's put of a
	// value of the same length replaces the element and leaves that alone.
	held, err := d.Get(th, 2*me)
	check(err)
	check(tm.Barrier(th))
	check(d.Put(th, 2*next, elem(2*next, 2)))
	check(tm.Barrier(th))
	if now, err := d.Get(th, 2*me); err != nil || !same(now, elem(2*me, 2)) || !same(held, elem(2*me, 1)) {
		t.Errorf("member %d: after a put element %d reads %v (%v) and the value read before it %v", me, 2*me, now, err, held)
	}

	// Collective results: one slice per rank, none sharing storage with
	// another or with the results of the next round.
	first, err := mpmd.AllGather(th, tm, bytes.Repeat([]byte{byte(me)}, 8))
	check(err)
	_, err = mpmd.AllGather(th, tm, bytes.Repeat([]byte{byte(100 + me)}, 8))
	check(err)
	for r, got := range first {
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(r)}, 8)) {
			t.Errorf("member %d: first AllGather's part %d reads %v after the second", me, r, got)
		}
	}
}
