package core

import (
	"encoding/binary"
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/am"
	"repro/internal/machine"
	"repro/internal/threads"
)

// wordPart is a DistPart of 8-byte elements (the one-word wire form);
// blobPart one of variable-size elements (the payload form).
type wordPart []uint64

func (p wordPart) Len() int { return len(p) }
func (p wordPart) AppendElem(off int, dst []byte) []byte {
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint64(dst[len(dst)-8:], p[off])
	return dst
}
func (p wordPart) SetElem(off int, b []byte) { p[off] = binary.LittleEndian.Uint64(b) }

type blobPart [][]byte

func (p blobPart) Len() int                              { return len(p) }
func (p blobPart) AppendElem(off int, dst []byte) []byte { dst = append(dst, p[off]...); return dst }
func (p blobPart) SetElem(off int, b []byte) {
	e := p[off][:0]
	e = append(e, b...)
	p[off] = e
}

// distRig is a 2-node simulator with one word-form and one payload-form
// array, each with a 4-element part on both nodes, and a third array node 1
// holds no part of.
func distRig() (rt *Runtime, words, blobs int, w1 wordPart, b1 blobPart) {
	rt = newRig(2, Options{})
	w1 = wordPart{10, 11, 12, 13}
	b1 = blobPart{[]byte("zero"), []byte("one"), []byte("a longer third element"), []byte("3")}
	words = rt.AddDist(8, []DistPart{make(wordPart, 4), w1})
	blobs = rt.AddDist(0, []DistPart{make(blobPart, 4), b1})
	rt.AddDist(8, []DistPart{make(wordPart, 4), nil})
	return rt, words, blobs, w1, b1
}

// TestDistAccessWireForms: a one-word element travels in the words of two
// short AMs, a variable-size one as the payload of the same two handlers;
// neither is an RMI, and the word form is priced as Table 4's GP 2-Word R/W
// row without its thread (10 sync ops, no create, no switch at the owner).
func TestDistAccessWireForms(t *testing.T) {
	rt, words, blobs, w1, b1 := distRig()
	var got uint64
	var blob string
	var elapsed time.Duration
	rt.OnNode(0, func(th *threads.Thread) {
		var op DistOp
		rt.DistRead(th, &op, 1, words, 2, true) // warm the pools
		a0 := rt.m.Node(0).Acct.Snapshot()
		a1 := rt.m.Node(1).Acct.Snapshot()
		start := th.Now()
		op = DistOp{}
		rt.DistRead(th, &op, 1, words, 3, true)
		elapsed = time.Duration(th.Now() - start)
		got = binary.LittleEndian.Uint64(op.Bytes())
		op = DistOp{}
		rt.DistWrite(th, &op, 1, words, 0, []byte{42, 0, 0, 0, 0, 0, 0, 0}, true)
		d0 := rt.m.Node(0).Acct.Delta(a0).Counters
		d1 := rt.m.Node(1).Acct.Delta(a1).Counters
		if s, b := d0[machine.CntMsgShort]+d1[machine.CntMsgShort], d0[machine.CntMsgBulk]+d1[machine.CntMsgBulk]; s != 4 || b != 0 {
			t.Errorf("one-word get and put sent %d short and %d bulk AMs, want 4 and 0", s, b)
		}
		if n := d0[machine.CntRMI] + d1[machine.CntRMI]; n != 0 {
			t.Errorf("element accesses counted %d RMIs", n)
		}
		if r, w := d0[machine.CntRemoteRead], d0[machine.CntRemoteWrite]; r != 1 || w != 1 {
			t.Errorf("remote read/write counts %d/%d, want 1/1", r, w)
		}
		if n := d1[machine.CntThreadCreate] + d1[machine.CntContextSwitch]; n != 0 {
			t.Errorf("the owner created or switched threads %d times serving inline", n)
		}

		a0 = rt.m.Node(0).Acct.Snapshot()
		op = DistOp{}
		rt.DistRead(th, &op, 1, blobs, 2, true)
		blob = string(op.Bytes())
		op = DistOp{}
		rt.DistWrite(th, &op, 1, blobs, 3, []byte("written"), true)
		p0 := rt.m.Node(0).Acct.Delta(a0).Counters
		if s, b := p0[machine.CntMsgShort], p0[machine.CntMsgBulk]; s != 1 || b != 1 {
			t.Errorf("payload-form get and put: node 0 sent %d short and %d bulk AMs, want 1 (the get) and 1 (the put)", s, b)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 13 || w1[0] != 42 {
		t.Errorf("word form: read %d (want 13), wrote %d (want 42)", got, w1[0])
	}
	if blob != "a longer third element" || string(b1[3]) != "written" {
		t.Errorf("payload form: read %q, wrote %q", blob, b1[3])
	}
	// Table 4's GP 2-Word R/W row is 91.6 µs with its thread (21 µs); the
	// same access served inline must land between the bare AM round trip and
	// that.
	t.Logf("one-word get: %v of virtual time", elapsed)
	if elapsed < 55*time.Microsecond || elapsed > 85*time.Microsecond {
		t.Errorf("one-word get took %v of virtual time, want the GP row without its thread (~81µs)", elapsed)
	}
}

// TestDistHostileWords drives words no correct sender produces through the
// real am stack — they could come from another process — and requires the
// handler to refuse each by name (node, request, cause) before indexing
// anything with them. The GP rows set distThread, the bit of a GP access,
// whose owner checks the words before it spawns the serving thread.
// Deleting a check in nodeRT.part, handleDistReq, handleDistReply or
// am.ReqTable.Take fails exactly its rows: the words then index out of range
// or dereference nil (a payload-form put let through without its payload
// shows instead as the acknowledgement node 0 never asked for).
func TestDistHostileWords(t *testing.T) {
	type send struct {
		h       int // the handler: distReq or distReply
		a       [4]uint64
		payload []byte
	}
	const distReq, distReply = 0, 1
	const none, words, blobs, absent = -1, 0, 1, 2 // the rig's arrays, in AddDist order
	rows := []struct {
		name string
		// get is the array node 1 has a genuine get in flight on (request ID
		// 1) when the hostile message arrives, none for no get at all; early
		// makes the message overtake the genuine reply instead of following it.
		get   int
		early bool
		msg   send
		want  string
	}{
		{name: "unknown dist", get: none, want: "unknown segment 7",
			msg: send{a: [4]uint64{1, 7, 0}}},
		{name: "dist index past the word", get: none, want: "unknown segment",
			msg: send{a: [4]uint64{1, 1 << 40, 0}}},
		{name: "dist with no part on this node", get: none, want: "unknown segment 2",
			msg: send{a: [4]uint64{1, absent, 0}}},
		{name: "offset at part length", get: none, want: "offset 4 outside",
			msg: send{a: [4]uint64{1, words, 4}}},
		{name: "offset wraps negative", get: none, want: "outside",
			msg: send{a: [4]uint64{1, words, ^uint64(0)}}},
		{name: "put offset at part length", get: none, want: "offset 9 outside",
			msg: send{a: [4]uint64{1 | distPut, words, 9, 5}}},
		{name: "one-word put with a payload", get: none, want: "put carries a 3-byte element",
			msg: send{a: [4]uint64{1 | distPut, words, 0}, payload: []byte("abc")}},
		{name: "payload-form put without one", get: none, want: "put carries a 0-byte element",
			msg: send{a: [4]uint64{1 | distPut, blobs, 0}}},
		{name: "reply to a request never issued", get: none, want: "unknown request 9",
			msg: send{h: distReply, a: [4]uint64{0, 0, 0, 9}}},
		{name: "reply with request id 0", get: none, want: "unknown request 0",
			msg: send{h: distReply, a: [4]uint64{0, 0, 0, 0}}},
		{name: "duplicate reply", get: words, want: "unknown request 1 (stale or duplicate)",
			msg: send{h: distReply, a: [4]uint64{0, 0, 0, 1}}},
		{name: "payload answering a one-word get", get: words, early: true, want: "request 1: a 3-byte element",
			msg: send{h: distReply, a: [4]uint64{0, 0, 0, 1}, payload: []byte("abc")}},
		{name: "no payload answering a payload-form get", get: blobs, early: true, want: "request 1: a 0-byte element",
			msg: send{h: distReply, a: [4]uint64{0, 0, 0, 1}}},
		{name: "GP read of an unknown segment", get: none, want: "request 1 from node 0: unknown segment 7",
			msg: send{a: [4]uint64{1 | distThread, 7, 0}}},
		{name: "GP write past the part", get: none, want: "request 1 from node 0: offset 4 outside segment 0's part",
			msg: send{a: [4]uint64{1 | distPut | distThread, words, 4, 5}}},
		{name: "GP write to a segment node 1 holds no part of", get: none, want: "unknown segment 2",
			msg: send{a: [4]uint64{1 | distPut | distThread, absent, 0, 5}}},
		{name: "GP read of a segment of variable-size elements", get: none, want: "segment 1 holds 0-byte elements",
			msg: send{a: [4]uint64{1 | distThread, blobs, 0}}},
		{name: "GP read with a payload", get: none, want: "a threaded access carries a 3-byte payload",
			msg: send{a: [4]uint64{1 | distThread, words, 0}, payload: []byte("abc")}},
	}
	named := regexp.MustCompile(`^(core|am): node 1 dist re`)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			rt, _, _, _, _ := distRig()
			rt.OnNode(0, func(th *threads.Thread) {
				if !row.early {
					th.Compute(time.Millisecond) // node 1's genuine get is answered first
				}
				h := [...]am.HandlerID{rt.hDistReq, rt.hDistReply}[row.msg.h]
				rt.nodes[0].send(th, 1, h, row.msg.a, row.msg.payload)
			})
			var refused string
			rt.OnNode(1, func(th *threads.Thread) {
				if row.get != none {
					rt.DistRead(th, new(DistOp), 0, row.get, 0, false)
				}
				// The most recent message waiter receives the arrival: this
				// thread, not the node's poller.
				refused = serveRefusal(rt, th)
				if row.early {
					serveRefusal(rt, th) // the genuine reply follows, to a slot the refusal freed
				}
			})
			_ = rt.Run()
			if !named.MatchString(refused) || !strings.Contains(refused, "node 0") || !strings.Contains(refused, row.want) {
				t.Errorf("handler failed with %q, want the named refusal (node 1, from node 0, %q)", refused, row.want)
			}
		})
	}
}

// serveRefusal serves th's endpoint until a handler panics and returns the
// panic's text: it awaits a count nothing advances. th must be its node's most
// recent message waiter — a node program calling this is — so the arrival goes
// to it, not to the poller.
func serveRefusal(rt *Runtime, th *threads.Thread) (refusal string) {
	defer func() { refusal = fmt.Sprint(recover()) }()
	var never am.Count
	rt.nodeOf(th).ep.Await(th, &never, 1)
	return ""
}

// TestReplyHostileIDs is TestDistHostileWords for the request ID of the RMI
// reply (cc.reply; cc.dist.reply's rows are TestDistHostileWords' three reply
// rows): an ID that names no in-flight request of node 1 — 0, which wraps;
// one past the table; one already answered — is refused by name, never by a
// runtime index error. Dropping the bound in am.ReqTable.Take fails the first
// two rows, dropping its nil check the third.
func TestReplyHostileIDs(t *testing.T) {
	for _, id := range []struct {
		name     string
		id       uint64
		answered bool
	}{
		{"id 0", 0, false},
		{"id past the table", 9, false},
		{"id already answered", 1, true},
	} {
		rt := newRig(2, Options{})
		t.Run(rt.net.HandlerName(rt.hReply)+"/"+id.name, func(t *testing.T) {
			rt.OnNode(0, func(th *threads.Thread) {
				rt.nodes[0].send(th, 1, rt.hReply, [4]uint64{id.id}, nil)
			})
			var refused string
			rt.OnNode(1, func(th *threads.Thread) {
				if n := rt.nodeOf(th); id.answered {
					n.pending.Take("RMI", 1, 0, n.pending.Add(new(rmiMsg)))
				}
				refused = serveRefusal(rt, th)
			})
			_ = rt.Run()
			want := fmt.Sprintf("am: node 1 RMI reply from node 0 for unknown request %d (stale or duplicate)", id.id)
			if refused != want {
				t.Errorf("handler failed with %q, want %q", refused, want)
			}
		})
	}
}

// TestInvokeHostileWords is the same for the two words of a cc.invoke message
// that index something in handleInvoke: the stub ID of a warm invocation (the
// method table) and the name length of a cold one (the payload). Dropping
// either bound fails its rows with a runtime index or slice-bounds error.
func TestInvokeHostileWords(t *testing.T) {
	const req = 7
	methods := uint64(len(newRig(2, Options{}).methods))
	for _, tc := range []struct {
		name    string
		flags   uint64
		a2, a3  uint64
		payload []byte
		want    string
	}{
		{"stub id past the table", 0, methods, 0, nil,
			fmt.Sprintf("names stub %d, the method table has %d", methods, methods)},
		{"stub id with the top bit set", 0, 1 << 63, 0, nil,
			fmt.Sprintf("names stub %d, the method table has %d", uint64(1<<63), methods)},
		{"name length past the payload", flagCold, 0, 5, make([]byte, 4),
			"carries a 5-byte method name in a 4-byte payload"},
		{"name length negative as an int", flagCold, 0, ^uint64(0), make([]byte, 4),
			"carries a 18446744073709551615-byte method name in a 4-byte payload"},
		{"cold flag with a short payload", flagCold, 0, 12, nil,
			"carries a 12-byte method name in a 0-byte payload"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newRig(2, Options{})
			rt.OnNode(0, func(th *threads.Thread) {
				rt.nodes[0].send(th, 1, rt.hInvoke, [4]uint64{tc.flags | req<<32, 0, tc.a2, tc.a3}, tc.payload)
			})
			var refused string
			rt.OnNode(1, func(th *threads.Thread) { refused = serveRefusal(rt, th) })
			_ = rt.Run()
			if want := fmt.Sprintf("core: node 1 invocation from node 0 (request %d) %s", req, tc.want); refused != want {
				t.Errorf("handler failed with %q, want %q", refused, want)
			}
		})
	}
}

// TestDistSlotsBoundInFlight: a node never has more than distSlots
// split-phase accesses in flight; the issuer of one more serves its endpoint
// until a reply frees a slot, and every access still completes. A synchronous
// access takes no slot — its blocked thread is its own credit — so
// 2*distSlots threads in one each have theirs in flight at once.
func TestDistSlotsBoundInFlight(t *testing.T) {
	t.Run("split-phase", func(t *testing.T) {
		rt, words, _, _, _ := distRig()
		const burst = 5 * distSlots
		ops := make([]DistOp, burst)
		high := 0
		rt.OnNode(0, func(th *threads.Thread) {
			n := rt.nodeOf(th)
			for i := range ops {
				rt.DistRead(th, &ops[i], 1, words, i%4, false)
				high = max(high, n.distPending.InFlight())
			}
			for i := range ops {
				ops[i].Wait(th)
				if got := binary.LittleEndian.Uint64(ops[i].Bytes()); got != uint64(10+i%4) {
					t.Errorf("access %d read %d, want %d", i, got, 10+i%4)
				}
			}
		})
		// The owner computes without polling while the burst is issued, so
		// nothing is answered until the table has filled.
		rt.OnNode(1, func(th *threads.Thread) { th.Compute(5 * time.Millisecond) })
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		if high != distSlots {
			t.Errorf("high-water mark of in-flight accesses %d, want the table's %d slots", high, distSlots)
		}
	})
	t.Run("synchronous", func(t *testing.T) {
		rt, words, _, _, _ := distRig()
		const burst = 2 * distSlots
		got := make([]uint64, burst)
		rt.OnNode(0, func(th *threads.Thread) {
			ParFor(th, burst, func(t2 *threads.Thread, i int) {
				var op DistOp
				rt.DistRead(t2, &op, 1, words, i%4, true)
				got[i] = binary.LittleEndian.Uint64(op.Bytes())
			})
		})
		// Nothing is answered before the owner stops computing, so node 0's
		// in-flight count peaks when it does.
		high := 0
		rt.OnNode(1, func(th *threads.Thread) {
			th.Compute(5 * time.Millisecond)
			high = rt.nodes[0].distPending.InFlight()
		})
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		if high != burst {
			t.Errorf("high-water mark of in-flight synchronous accesses %d, want all %d threads' accesses", high, burst)
		}
		for i, v := range got {
			if v != uint64(10+i%4) {
				t.Errorf("access %d read %d, want %d", i, v, 10+i%4)
			}
		}
	})
}
