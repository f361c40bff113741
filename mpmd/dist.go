package mpmd

import (
	"fmt"
	"sync"
	"unsafe"

	"repro/internal/am"
	"repro/internal/core"
	"repro/internal/rmigen"
)

// Dist is a typed distributed array over a team: the generalization of
// Split-C's spread arrays (splitc.SpreadF64) beyond float64 and beyond the
// SPMD runtime — usable from CC++/typed-v2 programs on either backend, with
// a choice of layout. Elements live in per-member local parts. A remote
// access is Split-C's get or put: one request and one reply active message
// of the remote-memory protocol both runtimes share (am.Mem) — no
// marshalled RMI, no method dispatch, the owner serving it inline in its
// polling thread — priced on the simulator as Table 4's GP 2-Word R/W row
// without the thread. An element whose encoding is fixed and small (every
// 8-byte scalar, structs of up to three) rides in the message words of
// short AMs; any other is the payload of the same two messages. Split-phase
// accessors return typed futures that are the access's only allocation.

// Layout selects how Dist elements map to team ranks.
type Layout int

const (
	// LayoutBlock gives rank r the contiguous elements
	// [r*ceil(n/p), (r+1)*ceil(n/p)).
	LayoutBlock Layout = iota
	// LayoutCyclic gives rank r elements r, r+p, r+2p, … — Split-C's spread
	// layout.
	LayoutCyclic
)

// String names the layout.
func (l Layout) String() string {
	switch l {
	case LayoutBlock:
		return "block"
	case LayoutCyclic:
		return "cyclic"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// Dist is a typed distributed array of n elements of T spread over a team.
// Create it at setup time with NewDist; access it from member threads once
// the program runs.
type Dist[T any] struct {
	tm     *Team
	rt     *core.Runtime
	id     int // wire name: NewDist order, identical in every program image
	n      int
	layout Layout
	codec  *rmigen.Codec
	parts  []*distPart[T] // indexed by rank
	// recs recycles the access records (*distAccess[T]) of the synchronous
	// Get and Put, as core pools the records of synchronous RMIs.
	recs sync.Pool
}

// distPart is one member's local part; the owner's request handler reaches
// it through am.Part.
type distPart[T any] struct {
	elems []T
	codec *rmigen.Codec
}

func (p *distPart[T]) Len() int { return len(p.elems) }

func (p *distPart[T]) AppendElem(off int, dst []byte) []byte {
	return p.codec.AppendPtr(unsafe.Pointer(&p.elems[off]), dst)
}

func (p *distPart[T]) SetElem(off int, b []byte) {
	p.codec.DecodePtr(b, unsafe.Pointer(&p.elems[off]))
}

// NewDist allocates a distributed array of n elements of T over the team's
// nodes in the given layout. Setup-time only (like NewObject), and every
// program image must create its arrays in the same order: that order is the
// array's name on the wire. T must be a marshallable RMI value type.
func NewDist[T any](tm *Team, n int, layout Layout) (*Dist[T], error) {
	if tm == nil || tm.tm == nil {
		return nil, fmt.Errorf("NewDist on a nil Team")
	}
	c := tm.tm.Comm()
	if c.Runtime().Started() {
		return nil, fmt.Errorf("NewDist after Run has started: distributed arrays are placed at setup time")
	}
	if n < 0 {
		return nil, fmt.Errorf("NewDist: negative length %d", n)
	}
	if layout != LayoutBlock && layout != LayoutCyclic {
		return nil, fmt.Errorf("NewDist: unknown layout %v", layout)
	}
	codec, err := codecOf[T]("NewDist")
	if err != nil {
		return nil, err
	}
	d := &Dist[T]{tm: tm, rt: c.Runtime(), n: n, layout: layout, codec: codec}
	d.recs.New = func() any { return d.newAccess() }
	d.parts = make([]*distPart[T], tm.Size())
	byNode := make([]am.Part, d.rt.Machine().NumNodes())
	for r := range d.parts {
		d.parts[r] = &distPart[T]{elems: make([]T, d.partLen(r)), codec: codec}
		byNode[tm.Node(r)] = d.parts[r]
	}
	d.id = d.rt.AddDist(codec.FixedSize(), byNode)
	return d, nil
}

// Len returns the global element count.
func (d *Dist[T]) Len() int { return d.n }

// Team returns the team the array is spread over.
func (d *Dist[T]) Team() *Team { return d.tm }

// Layout returns the element-to-rank mapping.
func (d *Dist[T]) Layout() Layout { return d.layout }

// blockSize returns the per-rank block length of the block layout.
func (d *Dist[T]) blockSize() int {
	p := d.tm.Size()
	return (d.n + p - 1) / p
}

// owner maps a global index to (owning rank, owner-local offset).
func (d *Dist[T]) owner(i int) (rank, off int) {
	if d.layout == LayoutCyclic {
		p := d.tm.Size()
		return i % p, i / p
	}
	b := d.blockSize()
	return i / b, i % b
}

// partLen returns how many elements rank r owns.
func (d *Dist[T]) partLen(r int) int {
	p := d.tm.Size()
	if d.layout == LayoutCyclic {
		if d.n <= r {
			return 0
		}
		return (d.n - r + p - 1) / p
	}
	b := d.blockSize()
	sz := d.n - r*b
	if sz < 0 {
		return 0
	}
	if sz > b {
		return b
	}
	return sz
}

// globalIndex maps (rank, owner-local offset) back to the global index.
func (d *Dist[T]) globalIndex(r, off int) int {
	if d.layout == LayoutCyclic {
		return r + off*d.tm.Size()
	}
	return r*d.blockSize() + off
}

// OwnerRank returns the team rank owning global index i.
func (d *Dist[T]) OwnerRank(i int) int { r, _ := d.owner(i); return r }

// OwnerNode returns the node ID owning global index i.
func (d *Dist[T]) OwnerNode(i int) int { return d.tm.Node(d.OwnerRank(i)) }

// check validates one access: member thread, running program, index range.
func (d *Dist[T]) check(t *Thread, op string, i int) (rank, off int, local bool, err error) {
	if d == nil {
		return 0, 0, false, fmt.Errorf("%s on a nil Dist", op)
	}
	if _, err := d.tm.check(t, op); err != nil {
		return 0, 0, false, err
	}
	if i < 0 || i >= d.n {
		return 0, 0, false, fmt.Errorf("%s: index %d out of range [0,%d)", op, i, d.n)
	}
	rank, off = d.owner(i)
	return rank, off, d.tm.Node(rank) == t.Node().ID, nil
}

// distAccess is the sender-side state of one Dist element access, future
// first: the accessor allocates it whole and hands out &a.Future, so the
// future is the access's one allocation — its record, landing bytes and
// round-trip stamp (core.DistOp) ride in it.
type distAccess[R any] struct {
	Future[R]
	op core.DistOp
	// into is the one-element part over val that a get's reply lands in
	// (am.Op.Into).
	into distPart[R]
}

// newAccess returns a record of a get or put of d's elements, whose future
// joins on its access and whose get lands in its value.
func (d *Dist[T]) newAccess() *distAccess[T] {
	a := new(distAccess[T])
	a.f = &a.op.Future
	a.into = distPart[T]{elems: unsafe.Slice(&a.val, 1), codec: d.codec}
	a.op.Into = &a.into
	return a
}

// release returns a synchronous accessor's record to the pool, dropping
// what the element may reference.
func (d *Dist[T]) release(rec *distAccess[T]) {
	var zero T
	rec.val = zero
	rec.op.Reset()
	d.recs.Put(rec)
}

// Get reads element i: a direct dereference when the caller owns it, a
// request/reply pair to the owner otherwise.
func (d *Dist[T]) Get(t *Thread, i int) (T, error) {
	rank, off, local, err := d.check(t, "Dist.Get", i)
	if err != nil {
		var zero T
		return zero, err
	}
	if local {
		d.rt.DistLocal(t, nil)
		return d.parts[rank].elems[off], nil
	}
	rec := d.recs.Get().(*distAccess[T])
	d.rt.DistRead(t, &rec.op, d.tm.Node(rank), d.id, off, true)
	v := rec.val
	d.release(rec)
	return v, nil
}

// Put writes element i, returning once the owner has applied it.
func (d *Dist[T]) Put(t *Thread, i int, v T) error {
	rank, off, local, err := d.check(t, "Dist.Put", i)
	if err != nil {
		return err
	}
	if local {
		d.rt.DistLocal(t, nil)
		d.parts[rank].elems[off] = v
		return nil
	}
	// Encoding from the record's copy keeps v off the heap.
	rec := d.recs.Get().(*distAccess[T])
	rec.val = v
	enc := d.codec.AppendPtr(unsafe.Pointer(&rec.val), rec.op.Scratch())
	d.rt.DistWrite(t, &rec.op, d.tm.Node(rank), d.id, off, enc, true)
	d.release(rec)
	return nil
}

// GetAsync starts a split-phase read of element i; the returned future
// yields the typed value (Split-C's get, with a typed handle instead of a
// sync counter). A node has a bounded number of split-phase accesses in
// flight: past it the call serves the network until one of them completes,
// so issue bursts from program threads or Threaded methods, which may block.
// Synchronous Get and Put take no slot.
func (d *Dist[T]) GetAsync(t *Thread, i int) (*Future[T], error) {
	rank, off, local, err := d.check(t, "Dist.GetAsync", i)
	if err != nil {
		return nil, err
	}
	a := d.newAccess()
	if local {
		a.val = d.parts[rank].elems[off]
		d.rt.DistLocal(t, &a.op)
		return &a.Future, nil
	}
	d.rt.DistRead(t, &a.op, d.tm.Node(rank), d.id, off, false)
	return &a.Future, nil
}

// PutAsync starts a split-phase write of element i; the returned future
// completes when the owner's acknowledgement lands.
func (d *Dist[T]) PutAsync(t *Thread, i int, v T) (*Future[Void], error) {
	rank, off, local, err := d.check(t, "Dist.PutAsync", i)
	if err != nil {
		return nil, err
	}
	a := new(distAccess[Void])
	a.f = &a.op.Future
	if local {
		d.parts[rank].elems[off] = v
		d.rt.DistLocal(t, &a.op)
		return &a.Future, nil
	}
	enc := d.codec.AppendPtr(unsafe.Pointer(&v), a.op.Scratch())
	d.rt.DistWrite(t, &a.op, d.tm.Node(rank), d.id, off, enc, false)
	return &a.Future, nil
}

// Local returns the calling member's own part (indexed by owner-local
// offset; see ForEachLocal for global indices). The slice is live storage.
func (d *Dist[T]) Local(t *Thread) ([]T, error) {
	if d == nil {
		return nil, fmt.Errorf("Dist.Local on a nil Dist")
	}
	r, err := d.tm.check(t, "Dist.Local")
	if err != nil {
		return nil, err
	}
	return d.parts[r].elems, nil
}

// ForEachLocal visits every element the calling member owns, in global
// index order, passing a live pointer — the owner-computes idiom
// (Split-C's &A[MYPROC] loops) for any layout.
func (d *Dist[T]) ForEachLocal(t *Thread, fn func(i int, v *T)) error {
	if d == nil {
		return fmt.Errorf("Dist.ForEachLocal on a nil Dist")
	}
	r, err := d.tm.check(t, "Dist.ForEachLocal")
	if err != nil {
		return err
	}
	part := d.parts[r].elems
	for off := range part {
		fn(d.globalIndex(r, off), &part[off])
	}
	return nil
}
