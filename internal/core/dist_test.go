package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/am"
	"repro/internal/am/amtest"
	"repro/internal/machine"
	"repro/internal/threads"
)

// wordPart is a part of 8-byte elements (the one-word wire form); the
// rig's other parts are of variable-size elements (the payload form).
type wordPart []uint64

func (p wordPart) Len() int { return len(p) }
func (p wordPart) AppendElem(off int, dst []byte) []byte {
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint64(dst[len(dst)-8:], p[off])
	return dst
}
func (p wordPart) SetElem(off int, b []byte) { p[off] = binary.LittleEndian.Uint64(b) }

// distRig is a 2-node simulator with one word-form and one payload-form
// array, each with a 4-element part on both nodes, and a third array node 1
// holds no part of.
func distRig() (rt *Runtime, words, blobs int, w1 wordPart, b1 amtest.BlobPart) {
	rt = newRig(2, Options{})
	w1 = wordPart{10, 11, 12, 13}
	b1 = amtest.Blobs4()
	words = rt.AddDist(8, []am.Part{make(wordPart, 4), w1})
	blobs = rt.AddDist(0, []am.Part{make(amtest.BlobPart, 4), b1})
	rt.AddDist(8, []am.Part{make(wordPart, 4), nil})
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

// TestDistHostileWords runs the rows of the remote-memory protocol's one
// hostile-word table (amtest.Rows) that are named for CC++ through the
// runtime's own protocol: node 1 refuses each message by name (node, request,
// cause) before its words index anything. The GP rows set am.OpThread, the bit
// of a GP access, whose owner checks the words before it spawns the serving
// thread.
func TestDistHostileWords(t *testing.T) {
	for _, r := range amtest.Rows {
		if r.CC == "" {
			continue
		}
		t.Run(r.CC, func(t *testing.T) {
			rt := newRig(2, Options{})
			rt.AddF64([][]float64{make([]float64, 4), make([]float64, 4)})
			rt.AddF64([][]float64{make([]float64, 4), nil})
			rt.AddDist(0, []am.Part{amtest.Blobs4(), amtest.Blobs4()})
			amtest.Check(t, r, amtest.Rig{Mem: rt.mem, Net: rt.net, Start: func(prog func(*threads.Thread)) {
				rt.OnNode(0, prog)
				rt.OnNode(1, prog)
				_ = rt.Run()
			}}.Drive(r))
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
// reply (cc.reply; the remote-memory reply's rows are the hostile-word
// table's three reply rows): an ID that names no in-flight request of node 1 — 0, which wraps;
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
				rt.Send(th, 1, rt.hReply, [4]uint64{id.id}, nil)
			})
			var refused string
			rt.OnNode(1, func(th *threads.Thread) {
				if n := rt.nodeOf(th); id.answered {
					n.pending.Take("RMI", 1, 0, n.pending.Add(new(Future)))
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

// TestInvokeHostileWords is the same for what a cc.invoke message carries
// that handleInvoke indexes or decodes — the stub ID of a warm invocation
// (the method table), the name length of a cold one (the payload), a scalar
// argument (its word) — and for a cc.reply's scalar result. Dropping a bound
// fails its rows with a runtime index or slice-bounds error. FuzzArgs starts
// from the truncated words.
func TestInvokeHostileWords(t *testing.T) {
	const req = 7
	rig := newRig(2, Options{})
	methods := uint64(len(rig.methods))
	add := uint64(slices.IndexFunc(rig.methods, func(m *boundMethod) bool { return m.qname == "Counter::add" }))
	inv := func(cause string) string {
		return fmt.Sprintf("core: node 1 invocation from node 0 (request %d) %s", req, cause)
	}
	for _, tc := range []struct {
		name    string
		reply   bool // a cc.reply to a call returning a double, not a cc.invoke
		flags   uint64
		a2, a3  uint64
		payload []byte
		want    string
	}{
		{"stub id past the table", false, 0, methods, 0, nil,
			inv(fmt.Sprintf("names stub %d, the method table has %d", methods, methods))},
		{"stub id with the top bit set", false, 0, 1 << 63, 0, nil,
			inv(fmt.Sprintf("names stub %d, the method table has %d", uint64(1<<63), methods))},
		{"name length past the payload", false, flagCold, 0, 5, make([]byte, 4),
			inv("carries a 5-byte method name in a 4-byte payload")},
		{"name length negative as an int", false, flagCold, 0, ^uint64(0), make([]byte, 4),
			inv("carries a 18446744073709551615-byte method name in a 4-byte payload")},
		{"cold flag with a short payload", false, flagCold, 0, 12, nil,
			inv("carries a 12-byte method name in a 0-byte payload")},
		{"word argument missing", false, 0, add, 0, truncatedWords[0],
			"core: I64 argument truncated: 0 bytes, a word is 8"},
		{"word argument truncated", false, 0, add, 0, truncatedWords[1],
			"core: I64 argument truncated: 3 bytes, a word is 8"},
		{"double result truncated", true, 0, 0, 0, truncatedWords[2],
			"core: F64 argument truncated: 7 bytes, a word is 8"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newRig(2, Options{})
			gp := rt.CreateObject(1, "Counter")
			h, a := rt.hInvoke, [4]uint64{tc.flags | req<<32, uint64(gp.obj), tc.a2, tc.a3}
			if tc.reply {
				h, a = rt.hReply, [4]uint64{1}
			}
			rt.OnNode(0, func(th *threads.Thread) { rt.Send(th, 1, h, a, tc.payload) })
			var refused string
			rt.OnNode(1, func(th *threads.Thread) {
				if tc.reply {
					// The call the reply answers, to a method returning a double.
					if id := rt.nodeOf(th).pending.Add(&Future{rt: rt, ret: &F64{}}); id != 1 {
						t.Errorf("the call the reply answers has request id %d, want 1", id)
					}
				}
				refused = serveRefusal(rt, th)
			})
			_ = rt.Run()
			if refused != tc.want {
				t.Errorf("handler failed with %q, want %q", refused, tc.want)
			}
		})
	}
}

// TestDistSlotsBoundInFlight: a node never has more than distSlots
// split-phase accesses in flight in the protocol's landing table; the issuer
// of one more serves its endpoint until a reply frees a slot, and every
// access still completes. A synchronous access takes no slot — its blocked
// thread is its own credit — so 2*distSlots threads in one each have theirs
// in flight at once.
func TestDistSlotsBoundInFlight(t *testing.T) {
	t.Run("split-phase", func(t *testing.T) {
		rt, words, _, _, _ := distRig()
		const burst = 5 * distSlots
		ops := make([]DistOp, burst)
		high := 0
		rt.OnNode(0, func(th *threads.Thread) {
			for i := range ops {
				rt.DistRead(th, &ops[i], 1, words, i%4, false)
				high = max(high, rt.mem.InFlight(0))
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
			high = rt.mem.InFlight(0)
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
