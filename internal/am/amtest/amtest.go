// Package amtest holds the hostile-word table of the remote-memory protocol
// (am.Mem) and the rig that drives one of its rows. Both runtimes decode
// remote memory with that one protocol, so there is one table: am's own test
// and fuzz target run every row on a bare two-node machine, and each runtime's
// test runs the rows named for it through its own front end, which registers
// the rig's segments in order (Doubles, Absent, Blobs).
package amtest

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/am"
	"repro/internal/machine"
	"repro/internal/threads"
)

// The rig's segments, in registration order.
const (
	Doubles = 0 // four doubles on each node
	Absent  = 1 // four doubles on node 0, none on node 1
	Blobs   = 2 // four variable-size elements on each node (Split-C shares only doubles)
)

// BlobPart is a part of variable-size elements: byte strings.
type BlobPart [][]byte

func (p BlobPart) Len() int { return len(p) }
func (p BlobPart) AppendElem(off int, dst []byte) []byte {
	dst = append(dst, p[off]...)
	return dst
}
func (p BlobPart) SetElem(off int, b []byte) {
	e := p[off][:0]
	e = append(e, b...)
	p[off] = e
}

// What node 1 has in flight at node 0, as request 1, when a row's message
// arrives (Row.Pending).
const (
	None    = iota
	GetWord // a get of one double
	GetBlob // a get of a variable-size element
	GetBulk // a bulk get of four doubles
	PutWord // a put of one double
)

var pending = [...][4]uint64{
	GetWord: {am.OpGet, Doubles},
	GetBlob: {am.OpGet, Blobs},
	GetBulk: {am.OpGet | am.OpBulk, Doubles, 0, 4},
	PutWord: {am.OpPut, Doubles, 0, 5},
}

// Row is one message no correct sender produces, from node 0 to node 1: the
// words could come from another process, and node 1 must refuse them by name
// (node, sender, cause) before they index anything.
type Row struct {
	// Name is the row's name in am's table; CC and SC its name in the CC++
	// and Split-C tables, "" where that runtime does not run it.
	Name, CC, SC string
	Reply        bool // to the reply handler, not the request handler
	A            [4]uint64
	Payload      []byte
	// Pending is node 1's access in flight; Early makes the message overtake
	// that access's reply instead of following it.
	Pending int
	Early   bool
	Want    string
}

// Rows is the table. The ID of a request is 1; a store's is 0.
var Rows = []Row{
	{Name: "unknown segment", CC: "unknown dist", SC: "segment past the table",
		A: [4]uint64{1, 7, 0}, Want: "no part of segment 7 here"},
	{Name: "segment index past the word", CC: "dist index past the word", SC: "segment index past the word",
		A: [4]uint64{1 | am.OpBulk, 1 << 40, 0, 1}, Want: "no part of segment 1099511627776 here"},
	{Name: "segment with no part on this node", CC: "dist with no part on this node", SC: "segment the node holds no part of",
		A: [4]uint64{1 | am.OpPut, Absent, 0, 5}, Want: "no part of segment 1 here"},
	{Name: "offset at part length", CC: "offset at part length",
		A: [4]uint64{1, Doubles, 4}, Want: "1 elements at offset 4 outside segment 0's part of 4"},
	{Name: "put offset past the part", CC: "put offset at part length", SC: "offset past the part",
		A: [4]uint64{1 | am.OpPut, Doubles, 9, 5}, Want: "1 elements at offset 9 outside segment 0's part of 4"},
	{Name: "offset wraps negative", CC: "offset wraps negative", SC: "offset wraps negative",
		A: [4]uint64{am.OpStore, Doubles, ^uint64(0), 5}, Want: "at offset 18446744073709551615 outside"},
	{Name: "length past the part", SC: "length past the part",
		A: [4]uint64{1 | am.OpBulk, Doubles, 2, 3}, Want: "3 elements at offset 2 outside segment 0's part of 4"},
	{Name: "length overflows the offset", SC: "length overflows the offset",
		A: [4]uint64{1 | am.OpPut | am.OpBulk, Doubles, 2, ^uint64(0) - 1}, Payload: make([]byte, 8), Want: "elements at offset 2 outside"},
	{Name: "one-word put with a payload", CC: "one-word put with a payload",
		A: [4]uint64{1 | am.OpPut, Doubles, 0}, Payload: []byte("abc"), Want: "a put carries a 3-byte payload for 1 × 8-byte elements"},
	{Name: "payload-form put without one", CC: "payload-form put without one",
		A: [4]uint64{1 | am.OpPut, Blobs, 0}, Want: "a put carries a 0-byte payload for 1 × 0-byte elements"},
	{Name: "bulk put payload longer than its count", SC: "bulk write payload longer than its length word",
		A: [4]uint64{1 | am.OpPut | am.OpBulk, Doubles, 0, 2}, Payload: make([]byte, 24), Want: "a put carries a 24-byte payload for 2 × 8-byte elements"},
	{Name: "bulk store payload shorter than its count", SC: "bulk store payload shorter than its length word",
		A: [4]uint64{am.OpStore | am.OpBulk, Doubles, 0, 2}, Payload: make([]byte, 8), Want: "a put carries a 8-byte payload for 2 × 8-byte elements"},
	{Name: "bulk put of variable-size elements",
		A: [4]uint64{1 | am.OpPut | am.OpBulk, Blobs, 0, 1}, Payload: []byte("x"), Want: "a put carries a 1-byte payload for 1 × 0-byte elements"},
	{Name: "atomic add on a segment of other elements",
		A: [4]uint64{1 | am.OpAdd, Blobs, 0, 5}, Want: "segment 2 holds no doubles"},
	{Name: "threaded read of an unknown segment", CC: "GP read of an unknown segment",
		A: [4]uint64{1 | am.OpThread, 7, 0}, Want: "request 1 from node 0: no part of segment 7 here"},
	{Name: "threaded write past the part", CC: "GP write past the part",
		A: [4]uint64{1 | am.OpPut | am.OpThread, Doubles, 4, 5}, Want: "request 1 from node 0: 1 elements at offset 4 outside segment 0's part"},
	{Name: "threaded write to a segment node 1 holds no part of", CC: "GP write to a segment node 1 holds no part of",
		A: [4]uint64{1 | am.OpPut | am.OpThread, Absent, 0, 5}, Want: "no part of segment 1 here"},
	{Name: "threaded read of a segment of variable-size elements", CC: "GP read of a segment of variable-size elements",
		A: [4]uint64{1 | am.OpThread, Blobs, 0}, Want: "request 1 from node 0: segment 2 holds no doubles"},
	{Name: "threaded read with a payload", CC: "GP read with a payload",
		A: [4]uint64{1 | am.OpThread, Doubles, 0}, Payload: []byte("abc"), Want: "a threaded access carries a 3-byte payload"},
	{Name: "reply to a request never issued", CC: "reply to a request never issued", SC: "reply to a request never issued",
		Reply: true, A: [4]uint64{3: 9}, Want: "mem reply from node 0 for unknown request 9"},
	{Name: "reply with request id 0", CC: "reply with request id 0", SC: "reply with request id 0",
		Reply: true, Want: "unknown request 0"},
	{Name: "duplicate reply", CC: "duplicate reply", SC: "reply to a request already answered",
		Reply: true, A: [4]uint64{3: 1}, Pending: GetWord, Want: "unknown request 1 (stale or duplicate)"},
	{Name: "payload answering a one-word get", CC: "payload answering a one-word get",
		Reply: true, A: [4]uint64{3: 1}, Payload: []byte("abc"), Pending: GetWord, Early: true,
		Want: "request 1: a 3-byte payload for 1 × 8-byte elements"},
	{Name: "no payload answering a payload-form get", CC: "no payload answering a payload-form get",
		Reply: true, A: [4]uint64{3: 1}, Pending: GetBlob, Early: true,
		Want: "request 1: a 0-byte payload for 1 × 0-byte elements"},
	{Name: "bulk reply payload disagrees with its request", SC: "bulk reply payload disagrees with its request",
		Reply: true, A: [4]uint64{3: 1}, Payload: make([]byte, 8), Pending: GetBulk, Early: true,
		Want: "request 1: a 8-byte payload for 4 × 8-byte elements"},
	{Name: "payload on an acknowledgement", CC: "payload on a put's acknowledgement", SC: "payload on a write's acknowledgement",
		Reply: true, A: [4]uint64{3: 1}, Payload: []byte("abc"), Pending: PutWord, Early: true,
		Want: "request 1: an acknowledgement carries a 3-byte payload"},
}

// Rig is a front end's protocol on a two-node machine that registered the
// rig's segments: Start runs the program it is given on both nodes and the
// machine to completion.
type Rig struct {
	Mem   *am.Mem
	Net   *am.Net
	Start func(prog func(t *threads.Thread))
}

// Drive sends r's message from node 0 to node 1, after node 1 has issued
// r.Pending, and returns what each node refused, in order. The program never
// blocks: it computes and polls for a few milliseconds of virtual time, long
// enough for every reply to land, and a handler's panic is a refusal, not the
// end of the run.
func (rig Rig) Drive(r Row) (refused [2][]string) {
	req, reply := rig.Mem.Handlers()
	h := req
	if r.Reply {
		h = reply
	}
	rig.Start(func(t *threads.Thread) {
		me := t.Node().ID
		ep := rig.Net.Endpoint(me)
		if me == 1 && r.Pending != None {
			rig.Mem.Access(t, &am.Op{Done: new(am.Count)}, 0, pending[r.Pending], nil, false)
		}
		if me == 0 {
			if !r.Early { // node 1's access is answered first
				t.Compute(time.Millisecond)
				refused[0] = append(refused[0], Poll(t, ep)...)
			}
			ep.Request(t, 1, h, r.A, r.Payload, len(r.Payload) > 0)
		}
		for range 4 {
			t.Compute(time.Millisecond)
			refused[me] = append(refused[me], Poll(t, ep)...)
		}
	})
	return refused
}

// Check fails t unless node 1's first refusal names node 1, node 0 and r's
// cause.
func Check(t testing.TB, r Row, refused [2][]string) {
	t.Helper()
	first := ""
	if len(refused[1]) > 0 {
		first = refused[1][0]
	}
	if !strings.HasPrefix(first, "am: node 1 ") || !strings.Contains(first, "node 0") || !strings.Contains(first, r.Want) {
		t.Errorf("handler failed with %q, want the named refusal (node 1, from node 0, %q); node 0 refused %q", first, r.Want, refused[0])
	}
}

// Poll serves ep until its inbox is empty and returns the text of every
// handler panic.
func Poll(t *threads.Thread, ep *am.Endpoint) (refusals []string) {
	for {
		handled, refusal := pollOne(t, ep)
		if refusal != "" {
			refusals = append(refusals, refusal)
		}
		if !handled {
			return refusals
		}
	}
}

func pollOne(t *threads.Thread, ep *am.Endpoint) (handled bool, refusal string) {
	defer func() {
		if p := recover(); p != nil {
			handled, refusal = true, fmt.Sprint(p)
		}
	}()
	return ep.Poll(t), ""
}

// Bare builds the rig on a bare two-node simulator: a protocol with no price
// over the rig's segments, one thread per node.
func Bare() Rig {
	m := machine.New(machine.SP1997(), 2)
	net := am.NewNet(m, am.Profile{})
	mm := am.NewMem(net, am.Price{})
	mm.AddF64([][]float64{make([]float64, 4), make([]float64, 4)})
	mm.AddF64([][]float64{make([]float64, 4), nil})
	mm.Add(0, []am.Part{Blobs4(), Blobs4()})
	return Rig{mm, net, func(prog func(t *threads.Thread)) {
		for i := range 2 {
			s := threads.NewScheduler(m.Node(i))
			net.Endpoint(i).Attach(s)
			s.Start("main", prog)
		}
		_ = m.Run()
	}}
}

// Blobs4 returns a part of four variable-size elements, for the Blobs segment.
func Blobs4() BlobPart {
	return BlobPart{[]byte("zero"), []byte("one"), []byte("a longer third element"), []byte("3")}
}
