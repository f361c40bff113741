package am

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/race"
	"repro/internal/threads"
	"repro/internal/transport/live"
	"repro/internal/wire"
)

// rig builds an n-node machine with the SP1997 profile, a Net, and one
// scheduler per node (endpoints attached).
func rig(n int) (*machine.Machine, *Net, []*threads.Scheduler) {
	return rigOn(machine.New(machine.SP1997(), n))
}

func rigOn(m *machine.Machine) (*machine.Machine, *Net, []*threads.Scheduler) {
	net := NewNet(m, Profile{})
	scheds := make([]*threads.Scheduler, m.NumNodes())
	for i := range scheds {
		scheds[i] = threads.NewScheduler(m.Node(i))
		net.Endpoint(i).Attach(scheds[i])
	}
	return m, net, scheds
}

// service runs a polling service loop on sched until its endpoint is
// stopped; tests call stopAll when the measured side is finished.
func service(sched *threads.Scheduler, ep *Endpoint) {
	sched.Start("svc", func(th *threads.Thread) {
		for {
			ep.PollAll(th)
			if ep.Stopped() {
				return
			}
			ep.WaitMessage(th)
		}
	})
}

func stopAll(net *Net, n int) {
	for i := 0; i < n; i++ {
		net.Endpoint(i).Stop()
	}
}

func TestShortRequestReplyRTT(t *testing.T) {
	m, net, scheds := rig(2)
	var done Count
	var reply HandlerID
	reply = net.Register("reply", func(th *threads.Thread, msg Msg) {
		done.Advance(th, 1)
	})
	echo := net.Register("echo", func(th *threads.Thread, msg Msg) {
		net.Endpoint(th.Node().ID).Request(th, msg.Src, reply, msg.A, nil, false)
	})
	var rtt time.Duration
	scheds[0].Start("main", func(th *threads.Thread) {
		ep := net.Endpoint(0)
		start := th.Now()
		ep.Request(th, 1, echo, [4]uint64{7}, nil, false)
		ep.Await(th, &done, 1)
		rtt = time.Duration(th.Now() - start)
		stopAll(net, 2)
	})
	service(scheds[1], net.Endpoint(1))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	want := machine.SP1997().ShortRTT() // 55 µs
	if rtt != want {
		t.Fatalf("0-word RTT = %v, want %v", rtt, want)
	}
}

func TestArgsDelivered(t *testing.T) {
	m, net, scheds := rig(2)
	var got [4]uint64
	var gotSrc int
	h := net.Register("h", func(th *threads.Thread, msg Msg) {
		got = msg.A
		gotSrc = msg.Src
	})
	scheds[0].Start("main", func(th *threads.Thread) {
		net.Endpoint(0).Request(th, 1, h, [4]uint64{1, 2, 3, 4}, nil, false)
	})
	scheds[1].Start("svc", func(th *threads.Thread) {
		ep := net.Endpoint(1)
		ep.WaitMessage(th)
		ep.PollAll(th)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got != [4]uint64{1, 2, 3, 4} || gotSrc != 0 {
		t.Fatalf("got args %v from %d", got, gotSrc)
	}
}

func TestBulkPayloadCopiedAtSend(t *testing.T) {
	m, net, scheds := rig(2)
	var got []byte
	h := net.Register("h", func(th *threads.Thread, msg Msg) {
		// The payload is only valid during the handler (its pooled buffer
		// recycles on return), so retaining it means copying it.
		got = append([]byte(nil), msg.Payload...)
	})
	scheds[0].Start("main", func(th *threads.Thread) {
		buf := []byte{1, 2, 3}
		net.Endpoint(0).Request(th, 1, h, [4]uint64{}, buf, true)
		buf[0] = 99 // must not be visible at the receiver
	})
	scheds[1].Start("svc", func(th *threads.Thread) {
		ep := net.Endpoint(1)
		ep.WaitMessage(th)
		ep.PollAll(th)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 {
		t.Fatalf("payload %v; sender mutation leaked or payload lost", got)
	}
}

func TestBulkCostsMoreThanShort(t *testing.T) {
	cfg := machine.SP1997()
	short := cfg.ShortRTT()
	bulk := cfg.BulkRTT(160, 0)
	if bulk <= short {
		t.Fatalf("bulk RTT %v not greater than short %v", bulk, short)
	}
	// Paper: bulk round trip is 15 µs above the 55 µs short RTT, plus
	// per-byte time.
	wantMin := short + 15*time.Microsecond
	if bulk < wantMin {
		t.Fatalf("bulk RTT %v < %v", bulk, wantMin)
	}
}

func TestFIFOOrderingPerPair(t *testing.T) {
	m, net, scheds := rig(2)
	var got []uint64
	h := net.Register("h", func(th *threads.Thread, msg Msg) {
		got = append(got, msg.A[0])
	})
	const n = 20
	scheds[0].Start("main", func(th *threads.Thread) {
		for i := 0; i < n; i++ {
			net.Endpoint(0).Request(th, 1, h, [4]uint64{uint64(i)}, nil, false)
		}
	})
	m.Eng.At(time.Millisecond, func() { stopAll(net, 2) })
	service(scheds[1], net.Endpoint(1))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got[i] != uint64(i) {
			t.Fatalf("messages reordered: %v", got)
		}
	}
}

func TestLoopbackSelfSend(t *testing.T) {
	m, net, scheds := rig(1)
	var hit Count
	h := net.Register("h", func(th *threads.Thread, msg Msg) { hit.Advance(th, 1) })
	scheds[0].Start("main", func(th *threads.Thread) {
		ep := net.Endpoint(0)
		ep.Request(th, 0, h, [4]uint64{}, nil, false)
		ep.Await(th, &hit, 1)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if hit.Value() != 1 {
		t.Fatal("loopback message never handled")
	}
}

// TestWireCodecRoundTrip pins the serialized Msg form used for cross-shard
// hops: EncodeWire consumes the envelope (pooled buffer released) and
// DecodeWireMsg reconstructs an identical message, payload copied into a
// fresh pooled buffer.
func TestWireCodecRoundTrip(t *testing.T) {
	payload := []byte("twelve bytes")
	msg := msgPool.Get().(*Msg)
	buf := wire.Copy(payload)
	*msg = Msg{
		Bulk: true, Src: 3, Dst: 7, H: 42,
		A:          [4]uint64{1, 2, 1 << 40, ^uint64(0)},
		Payload:    buf.Bytes(),
		PayloadBuf: buf,
	}
	n := msg.WireLen()
	enc := make([]byte, n)
	if got := msg.EncodeWire(enc); got != n {
		t.Fatalf("EncodeWire wrote %d, WireLen said %d", got, n)
	}
	out := DecodeWireMsg(3, 7, enc).(*Msg)
	if !out.Bulk || out.Src != 3 || out.Dst != 7 || out.H != 42 ||
		out.A != [4]uint64{1, 2, 1 << 40, ^uint64(0)} {
		t.Fatalf("decoded header mismatch: %+v", out)
	}
	if string(out.Payload) != string(payload) {
		t.Fatalf("decoded payload %q", out.Payload)
	}
	out.PayloadBuf.Release()
	*out = Msg{}
	msgPool.Put(out)
}

// TestShortWireCodecNoPayload checks the header-only form round-trips.
func TestShortWireCodecNoPayload(t *testing.T) {
	msg := msgPool.Get().(*Msg)
	*msg = Msg{Src: 0, Dst: 1, H: 9, A: [4]uint64{8, 0, 0, 4}}
	enc := make([]byte, msg.WireLen())
	msg.EncodeWire(enc)
	out := DecodeWireMsg(0, 1, enc).(*Msg)
	if out.Bulk || out.H != 9 || out.A != [4]uint64{8, 0, 0, 4} || out.PayloadBuf != nil {
		t.Fatalf("decoded %+v", out)
	}
	*out = Msg{}
	msgPool.Put(out)
}

// FuzzWireMsg drives arbitrary bytes, as a frame from another process, through
// the decoder NewNet installs. Each input decodes to nil, or to a message for
// a registered handler that a sender could have made: a short one has no
// payload, and its encoding is exactly the input. The seeds are a short and a
// bulk message, TestTruncatedAMBody's bodies on the transport (the header
// alone, one byte short of it, the handler one past the table), a frame
// naming a handler far past it, a short header followed by three bytes, and a
// header whose flags byte sets a bit no sender sets.
func FuzzWireMsg(f *testing.F) {
	_, net, _ := rig(2)
	h := net.Register("h", func(*threads.Thread, Msg) {})
	encode := func(m Msg) []byte {
		b := make([]byte, m.WireLen())
		pm := msgPool.Get().(*Msg)
		*pm = m
		pm.EncodeWire(b)
		return b
	}
	hdr := encode(Msg{H: h})
	far := encode(Msg{H: h})
	binary.LittleEndian.PutUint32(far[1:], ^uint32(0))
	flags := encode(Msg{H: h})
	flags[0] = 0x02
	f.Add(encode(Msg{H: h, A: [4]uint64{1, 2, 1 << 40, ^uint64(0)}}))
	f.Add(encode(Msg{Bulk: true, H: h, A: [4]uint64{3: 9}, Payload: []byte("a bulk payload")}))
	f.Add(hdr)
	f.Add(hdr[:len(hdr)-1])
	f.Add(encode(Msg{H: h + 1}))
	f.Add(far)
	f.Add(append(slices.Clone(hdr), "abc"...))
	f.Add(flags)
	f.Fuzz(func(t *testing.T, b []byte) {
		d := net.decodeWire(0, 1, b)
		if d == nil {
			return
		}
		m := d.(*Msg)
		if m.H < 0 || int(m.H) >= len(net.handlers) {
			t.Fatalf("decoded a message for handler %d, %d registered", m.H, len(net.handlers))
		}
		if !m.Bulk && len(m.Payload) != 0 {
			t.Fatalf("decoded a short message with a %d-byte payload %q", len(m.Payload), m.Payload)
		}
		want, payload := *m, slices.Clone(m.Payload)
		enc := make([]byte, m.WireLen())
		m.EncodeWire(enc)
		if !bytes.Equal(enc, b) {
			t.Fatalf("%x decodes to %+v, which encodes as %x", b, want, enc)
		}
		back, ok := net.decodeWire(0, 1, enc).(*Msg)
		if !ok {
			t.Fatalf("%+v does not decode from its own encoding", want)
		}
		if back.Bulk != want.Bulk || back.Src != 0 || back.Dst != 1 || back.H != want.H || back.A != want.A ||
			!bytes.Equal(back.Payload, payload) {
			t.Fatalf("%+v decodes from its own encoding as %+v", want, *back)
		}
		if back.PayloadBuf != nil {
			back.PayloadBuf.Release()
		}
	})
}

func TestCountersAndBytes(t *testing.T) {
	m, net, scheds := rig(2)
	h := net.Register("h", func(th *threads.Thread, msg Msg) {})
	scheds[0].Start("main", func(th *threads.Thread) {
		ep := net.Endpoint(0)
		ep.Request(th, 1, h, [4]uint64{}, nil, false)
		ep.Request(th, 1, h, [4]uint64{}, make([]byte, 100), true)
	})
	m.Eng.At(time.Millisecond, func() { stopAll(net, 2) })
	service(scheds[1], net.Endpoint(1))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	a0 := m.Node(0).Acct
	if a0.Counter(machine.CntMsgShort) != 1 || a0.Counter(machine.CntMsgBulk) != 1 {
		t.Fatalf("msg counters short=%d bulk=%d", a0.Counter(machine.CntMsgShort), a0.Counter(machine.CntMsgBulk))
	}
	if a0.Counter(machine.CntBytesSent) != 48+48+100 {
		t.Fatalf("bytes sent = %d", a0.Counter(machine.CntBytesSent))
	}
	if m.Node(1).Acct.Counter(machine.CntHandlersRun) != 2 {
		t.Fatalf("handlers run = %d", m.Node(1).Acct.Counter(machine.CntHandlersRun))
	}
}

func TestStopWakesWaiter(t *testing.T) {
	m, net, scheds := rig(1)
	exited := false
	scheds[0].Start("svc", func(th *threads.Thread) {
		ep := net.Endpoint(0)
		for !ep.Stopped() {
			ep.WaitMessage(th)
			ep.PollAll(th)
		}
		exited = true
	})
	m.Eng.At(10*time.Microsecond, func() { net.Endpoint(0).Stop() })
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !exited {
		t.Fatal("service loop never exited after Stop")
	}
}

func TestPollOnSendServicesPending(t *testing.T) {
	// Node 0 sends to node 1; node 1's only activity is sending back — its
	// send must poll and service node 0's request without an explicit Poll.
	m, net, scheds := rig(2)
	var handledOn1 bool
	var handledOn0 Count
	h1 := net.Register("on1", func(th *threads.Thread, msg Msg) { handledOn1 = true })
	h0 := net.Register("on0", func(th *threads.Thread, msg Msg) { handledOn0.Advance(th, 1) })
	scheds[0].Start("main0", func(th *threads.Thread) {
		ep := net.Endpoint(0)
		ep.Request(th, 1, h1, [4]uint64{}, nil, false)
		ep.Await(th, &handledOn0, 1)
	})
	scheds[1].Start("main1", func(th *threads.Thread) {
		ep := net.Endpoint(1)
		// Wait until node 0's message is in flight or queued, then send:
		// the send itself must poll the inbox.
		th.Charge(machine.CatCPU, 100*time.Microsecond)
		ep.Request(th, 0, h0, [4]uint64{}, nil, false)
		if !handledOn1 {
			t.Error("send did not poll pending inbox")
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if handledOn0.Value() != 1 || !handledOn1 {
		t.Fatalf("handledOn0=%v handledOn1=%v", handledOn0.Value() == 1, handledOn1)
	}
}

func TestHandlerReplyDoesNotRecurse(t *testing.T) {
	// A handler that replies must not recursively poll (bounded stack).
	m, net, scheds := rig(2)
	depth, maxDepth := 0, 0
	var pong HandlerID
	ping := net.Register("ping", func(th *threads.Thread, msg Msg) {
		depth++
		if depth > maxDepth {
			maxDepth = depth
		}
		net.Endpoint(th.Node().ID).Request(th, msg.Src, pong, msg.A, nil, false)
		depth--
	})
	var got Count
	pong = net.Register("pong", func(th *threads.Thread, msg Msg) { got.Advance(th, 1) })
	const n = 10
	scheds[0].Start("main", func(th *threads.Thread) {
		ep := net.Endpoint(0)
		for i := 0; i < n; i++ {
			ep.Request(th, 1, ping, [4]uint64{}, nil, false)
		}
		ep.Await(th, &got, n)
		stopAll(net, 2)
	})
	service(scheds[1], net.Endpoint(1))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if maxDepth != 1 {
		t.Fatalf("handler nesting depth %d, want 1", maxDepth)
	}
}

// TestWakeSkipsWaiterAlreadyReadied: a thread parked in WaitMessage can be
// made ready by something other than an arrival (on the wall-clock backends a
// sibling that polled its reply in readies it through its completion). Until
// it runs and unlists itself it is still the endpoint's most recent waiter —
// and the next arrival must not be spent on it, let alone trip the scheduler
// over a thread that is no longer blocked: the wake-up belongs to the next
// waiter down.
func TestWakeSkipsWaiterAlreadyReadied(t *testing.T) {
	m, net, scheds := rig(1)
	ep := net.Endpoint(0)
	var older, newer *threads.Thread
	woke := map[string]bool{}
	wait := func(name string) func(*threads.Thread) {
		return func(th *threads.Thread) {
			ep.WaitMessage(th)
			woke[name] = true
		}
	}
	older = scheds[0].Start("older", wait("older"))
	newer = scheds[0].Start("newer", wait("newer"))
	scheds[0].Start("driver", func(th *threads.Thread) {
		if len(ep.waiters) != 2 || ep.waiters[1] != newer {
			t.Errorf("waiters = %v, want older then newer", ep.waiters)
		}
		scheds[0].MakeReady(newer) // readied by its completion, not yet run
		if !ep.wakeOne() {         // an arrival
			t.Error("wakeOne found nobody to wake with a blocked waiter listed")
		}
		if older.State() != threads.Ready {
			t.Errorf("the older waiter is %v after the arrival, want it readied", older.State())
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !woke["older"] || !woke["newer"] || len(ep.waiters) != 0 {
		t.Fatalf("woke %v, %d waiters left listed; want both threads through and none listed", woke, len(ep.waiters))
	}
}

// TestMsgFieldsAreWords holds the envelope to what can cross an address-space
// boundary: every field of Msg but PayloadBuf (envelope-side bookkeeping that
// EncodeWire releases and never frames) must resolve to words — bools, fixed
// numbers, strings, byte slices, and arrays or structs of those. A pointer,
// interface, map, channel or func added to Msg is an object reference riding
// beside the words, which the sharded backend cannot carry.
func TestMsgFieldsAreWords(t *testing.T) {
	var words func(reflect.Type) bool
	words = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Bool, reflect.String,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
			return true
		case reflect.Slice:
			return ty.Elem().Kind() == reflect.Uint8
		case reflect.Array:
			return words(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if !words(ty.Field(i).Type) {
					return false
				}
			}
			return true
		}
		return false
	}
	ty := reflect.TypeOf(Msg{})
	for i := 0; i < ty.NumField(); i++ {
		if f := ty.Field(i); f.Name != "PayloadBuf" && !words(f.Type) {
			t.Errorf("Msg.%s has type %v, which is not wire words: resolve it from the word arguments at the destination", f.Name, f.Type)
		}
	}
}

// TestBulkPingPongAllocs is the receiver's half of the payload-buffer
// contract, checked where it happens: Poll releases every bulk payload when
// its handler returns, so a warm bulk round trip between two endpoints takes
// both of its buffers from the pool and allocates nothing. A receiver that
// forgets the Release leaves the pool empty and every send allocates.
func TestBulkPingPongAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// On the wall-clock backend: the simulator's event queue allocates per
	// message by design.
	m, net, scheds := rigOn(machine.NewWithBackend(machine.SP1997(), 2,
		live.New(2, live.Options{Watchdog: time.Minute})))
	var pongs Count
	pong := net.Register("pong", func(th *threads.Thread, msg Msg) { pongs.Advance(th, 1) })
	ping := net.Register("ping", func(th *threads.Thread, msg Msg) {
		net.Endpoint(1).Request(th, msg.Src, pong, msg.A, msg.Payload, true)
	})
	var perTrip float64
	scheds[0].Start("main", func(th *threads.Thread) {
		ep := net.Endpoint(0)
		payload := make([]byte, 1024)
		want := uint64(0)
		trip := func() {
			want++
			ep.Request(th, 1, ping, [4]uint64{}, payload, true)
			ep.Await(th, &pongs, want)
		}
		for i := 0; i < 8; i++ { // warm the buffer and envelope pools, the inbox rings
			trip()
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC would drain the pools
		perTrip = testing.AllocsPerRun(200, trip)
		stopAll(net, 2)
	})
	service(scheds[1], net.Endpoint(1))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if perTrip != 0 {
		t.Errorf("a warm 1 KiB bulk round trip allocates %.2f, want 0", perTrip)
	}
}

// TestStopFromAnyGoroutine: Stop may be called off the node's context — a
// wall-clock run's end is found on whichever goroutine reads the last count.
// It only asks; the node's arrival hook stops the endpoint and wakes the
// service loop parked in WaitMessage, and the run ends.
func TestStopFromAnyGoroutine(t *testing.T) {
	m, net, scheds := rigOn(machine.NewWithBackend(machine.SP1997(), 1, live.New(1, live.Options{Watchdog: time.Minute})))
	parked := make(chan struct{})
	ep := net.Endpoint(0)
	scheds[0].Start("svc", func(th *threads.Thread) {
		close(parked)
		for !ep.Stopped() {
			ep.WaitMessage(th)
		}
	})
	go func() {
		<-parked
		ep.Stop()
	}()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestAwaitAfterStopParksOnCount: once the endpoint has stopped nothing more
// arrives, so on every machine a thread awaiting a count parks on the count
// alone, and the sibling that advances it lets it go.
func TestAwaitAfterStopParksOnCount(t *testing.T) {
	for _, m := range []*machine.Machine{
		machine.New(machine.SP1997(), 1),
		machine.NewWithBackend(machine.SP1997(), 1, live.New(1, live.Options{Watchdog: time.Minute})),
	} {
		m, net, scheds := rigOn(m)
		var c Count
		returned := false
		scheds[0].Start("main", func(th *threads.Thread) {
			ep := net.Endpoint(0)
			ep.Stop()
			for !ep.Stopped() { // the stop lands by the node's arrival hook
				th.Compute(time.Microsecond)
				ep.Poll(th)
			}
			th.Spawn("advancer", func(t2 *threads.Thread) { c.Advance(t2, 1) })
			ep.Await(th, &c, 1)
			returned = true
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if !returned || c.one != nil || len(c.more) != 0 {
			t.Fatalf("eng=%v: returned %v, waiters left listed %v %v; want the waiter released and unlisted", m.Eng != nil, returned, c.one, c.more)
		}
	}
}
