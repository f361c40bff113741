package main

import (
	"reflect"
	"runtime"
	"slices"
	"time"

	"repro/internal/am"
	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/rmigen"
	"repro/internal/transport"
	"repro/internal/transport/live"
	"repro/internal/wire"
	"repro/mpmd"
)

// The isolated layer loops: each times one layer's exported functions from
// outside, with nothing else running, so a change to that layer has a number
// of its own to move. They are short (tens of ms) and report the median of
// several batches; none of them feeds an end-to-end metric.

const (
	loopBatches = 9
	loopIters   = 20000
)

// nsPerIter times fn(n) over loopBatches batches and returns the median cost
// of one iteration in ns.
func nsPerIter(n int, fn func(n int)) float64 {
	per := make([]float64, loopBatches)
	for b := range per {
		t := time.Now()
		fn(n)
		per[b] = float64(time.Since(t)) / float64(n)
	}
	return median(per)
}

// sink keeps loop results alive.
var sink int

// layerLoops runs every isolated loop that does not depend on the workload.
func layerLoops(out map[string]float64) error {
	var err error
	out["wire.get_release_ns_64B"] = wireGetRelease(64)
	out["wire.get_release_ns_16KiB"] = wireGetRelease(16 << 10)
	out["wire.ring_push_pop_ns"] = nsPerIter(loopIters, func(n int) {
		var r wire.Ring[int]
		for i := 0; i < n; i++ {
			r.Push(i)
			v, _ := r.Pop()
			sink += v
		}
	})
	out["am.wire_codec_ns_0B"] = amWireCodec(0)
	out["am.wire_codec_ns_16KiB"] = amWireCodec(16 << 10)

	if out["machine.inbox_ns_per_msg"], err = inboxLoop(); err != nil {
		return err
	}
	if out["live.park_unpark_ns"], err = parkUnpark(); err != nil {
		return err
	}
	if out["live.send_to_arrival_us"], err = sendToArrival(); err != nil {
		return err
	}
	if out["threads.yield_pingpong_ns"], err = yieldPingPong(); err != nil {
		return err
	}
	if out["mpmd.typed_minus_untyped_ns"], err = typedMinusUntyped(); err != nil {
		return err
	}

	// The simulator guard: work on the shared core/am/threads code for the
	// live backends must neither slow nor perturb the calibrated model.
	t := time.Now()
	rows := bench.RunMicro(bench.Cfg(), bench.Quick())
	out["simnet.table4_wall_ms"] = float64(time.Since(t)) / 1e6
	for _, r := range rows {
		if r.Name == "0-Word" {
			out["simnet.null_rmi_model_us"] = float64(r.CCTotal) / 1e3
		}
	}
	return nil
}

func wireGetRelease(size int) float64 {
	return nsPerIter(loopIters, func(n int) {
		for i := 0; i < n; i++ {
			b := wire.Get(size)
			sink += b.Len()
			b.Release()
		}
	})
}

// amWireCodec is Msg.EncodeWire + DecodeWireMsg of one message, the pair a
// frame pays to cross an address-space boundary.
func amWireCodec(payload int) float64 {
	m := &am.Msg{Bulk: payload > 0, Src: 0, Dst: 1, H: 3, A: [4]uint64{1, 2, 3, 4}}
	if payload > 0 {
		m.Payload = make([]byte, payload)
	}
	enc := make([]byte, m.WireLen())
	m.EncodeWire(enc)
	return nsPerIter(loopIters/4, func(n int) {
		for i := 0; i < n; i++ {
			m := am.DecodeWireMsg(0, 1, enc).(*am.Msg)
			sink += m.EncodeWire(enc)
		}
	})
}

// rmigenCodec is CodecFor(type).AppendTo + Decode of the workload's argument.
func rmigenCodec(arg any) (ns, allocs float64, err error) {
	c, err := rmigen.CodecFor(reflect.TypeOf(arg))
	if err != nil {
		return 0, 0, err
	}
	in := reflect.New(reflect.TypeOf(arg)).Elem()
	in.Set(reflect.ValueOf(arg))
	outv := reflect.New(reflect.TypeOf(arg)).Elem()
	var buf []byte
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	ns = nsPerIter(loopIters/4, func(n int) {
		for i := 0; i < n; i++ {
			buf = c.AppendTo(in, buf[:0])
			c.Decode(buf, outv)
		}
	})
	runtime.ReadMemStats(&ms)
	return ns, float64(ms.Mallocs-before) / float64(loopBatches*(loopIters/4)), nil
}

// rawLive builds an n-node machine on the live backend with no runtime above
// it, for the loops that drive machine and transport/live directly.
func rawLive(n int) (*machine.Machine, *live.Backend) {
	be := live.New(n, live.Options{Watchdog: 20 * time.Second})
	return machine.NewWithBackend(mpmd.SPConfig(), n, be), be
}

// inboxLoop is Node.Loopback + PopInbox: one message through the inbox and
// the notify queue of its own node.
func inboxLoop() (float64, error) {
	m, be := rawLive(1)
	nd := m.Node(0)
	var ns float64
	be.Go(0, "inbox", func(p transport.Proc) {
		ns = nsPerIter(loopIters, func(n int) {
			for i := 0; i < n; i++ {
				nd.Loopback(8, nil)
				pkt, _ := nd.PopInbox()
				sink += pkt.Size
			}
			p.Sleep(1) // let the delivery worker drain the notifies
		})
	})
	return ns, m.Run()
}

// parkUnpark is two Procs of one node handing the CPU back and forth; the
// result is one handoff.
func parkUnpark() (float64, error) {
	m, be := rawLive(1)
	var a, b transport.Proc
	var ns float64
	a = be.Go(0, "ping", func(p transport.Proc) {
		ns = nsPerIter(loopIters/4, func(n int) {
			for i := 0; i < n; i++ {
				b.Unpark()
				p.Park()
			}
		}) / 2
	})
	b = be.Go(0, "pong", func(p transport.Proc) {
		for i := 0; i < loopBatches*(loopIters/4); i++ {
			p.Park()
			a.Unpark()
		}
	})
	return ns, m.Run()
}

// sendToArrival is Node.Send on node 0 until OnArrival runs on node 1, whose
// only proc is parked: the notify → delivery-worker handoff. Median, in µs.
func sendToArrival() (float64, error) {
	const rounds = 4000
	m, be := rawLive(2)
	n0, n1 := m.Node(0), m.Node(1)
	epoch := time.Now()
	var arrived int64
	var sender, receiver transport.Proc
	n1.OnArrival = func() {
		arrived = int64(time.Since(epoch))
		receiver.Unpark()
	}
	n0.OnArrival = func() { sender.Unpark() }
	samples := make([]float64, 0, rounds)
	sender = be.Go(0, "sender", func(p transport.Proc) {
		for i := 0; i < rounds; i++ {
			sent := int64(time.Since(epoch))
			n0.Send(1, 0, 8, nil)
			p.Park() // until the receiver's answer arrives
			n0.PopInbox()
			samples = append(samples, float64(arrived-sent)/1e3)
		}
	})
	receiver = be.Go(1, "receiver", func(p transport.Proc) {
		for i := 0; i < rounds; i++ {
			p.Park()
			n1.PopInbox()
			n1.Send(0, 0, 8, nil)
		}
	})
	err := m.Run()
	return median(samples), err
}

// yieldPingPong is two cooperative threads of one node yielding to each
// other: the paper's thread-switch cost on this host.
func yieldPingPong() (float64, error) {
	m, _ := rawLive(1)
	rt := mpmd.NewRuntime(m)
	var ns float64
	rt.OnNode(0, func(t *mpmd.Thread) {
		ns = nsPerIter(loopIters/4, func(n int) {
			spin := func(t *mpmd.Thread) {
				for i := 0; i < n; i++ {
					t.Yield()
				}
			}
			mpmd.Par(t, spin, spin)
		}) / 2
	})
	return ns, rt.Run()
}

// typedMinusUntyped is what the typed façade adds to a warm null RMI: the
// round trip of mpmd.Invoke minus Runtime.Call on the same method, in
// alternating batches on one live machine.
func typedMinusUntyped() (float64, error) {
	m, _ := rawLive(2)
	rt := mpmd.NewRuntime(m)
	if err := mpmd.RegisterClass[Server](rt); err != nil {
		return 0, err
	}
	srv, err := mpmd.NewObject[Server](rt, 1)
	if err != nil {
		return 0, err
	}
	var typed, untyped []float64
	rt.OnNode(0, func(t *mpmd.Thread) {
		const batch = 2000
		for b := 0; b < 2*loopBatches+2; b++ {
			start := time.Now()
			for i := 0; i < batch; i++ {
				if b%2 == 0 {
					mpmd.Invoke[mpmd.Void, mpmd.Void](t, srv, "Null", mpmd.Void{})
				} else {
					rt.Call(t, srv.GPtr(), "Null", nil, nil)
				}
			}
			per := float64(time.Since(start)) / batch
			switch {
			case b < 2: // warm both paths
			case b%2 == 0:
				typed = append(typed, per)
			default:
				untyped = append(untyped, per)
			}
		}
	})
	if err := rt.Run(); err != nil {
		return 0, err
	}
	return median(typed) - median(untyped), nil
}

// median returns the middle of v (mean of the middle two for an even count);
// 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
