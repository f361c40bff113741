package conformance

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/splitc"
	"repro/internal/transport/live"
	"repro/mpmd"
)

// TestRemoteMemoryShapes pins what one remote-memory access sends, for every
// primitive of both runtimes, on the simulator and on live: its short and bulk
// active messages and wire bytes, summed over both nodes. A scalar access is
// two short messages, a bulk one a bulk message one way and a short one the
// other, a store one message with no reply, and a Dist element that outgrows
// the words rides as the payload of the same two messages. Each row runs a
// fresh two-node machine with one access and with two; the difference is the
// access's, whatever the run's set-up and shutdown send.
func TestRemoteMemoryShapes(t *testing.T) {
	const vec = 4 // doubles per bulk access
	type scBody func(p *splitc.Proc, gp splitc.GPF, gv splitc.GVF, v []float64)
	sc := func(body scBody) func(m *machine.Machine, k int) error {
		return func(m *machine.Machine, k int) error {
			w := splitc.New(m)
			seg := w.Share(parts(2, vec))
			return w.Run(func(p *splitc.Proc) {
				if p.MyPC() == 0 {
					v := make([]float64, vec)
					for range k {
						body(p, splitc.GPF{PC: 1, Seg: seg}, splitc.GVF{PC: 1, Seg: seg, Len: vec}, v)
					}
				}
				p.Barrier()
			})
		}
	}
	type ccArrays struct {
		gp core.GPF64
		f  *mpmd.Dist[float64]
		b  *mpmd.Dist[distBlob]
	}
	cc := func(body func(rt *core.Runtime, th *mpmd.Thread, a ccArrays) error) func(m *machine.Machine, k int) error {
		return func(m *machine.Machine, k int) error {
			rt := core.NewRuntime(m)
			a := ccArrays{gp: core.NewGPF64(1, rt.AddF64(parts(2, vec)), 0)}
			tm, err := mpmd.WorldTeam(rt)
			if err == nil {
				a.f, err = mpmd.NewDist[float64](tm, vec, mpmd.LayoutCyclic)
			}
			if err == nil {
				a.b, err = mpmd.NewDist[distBlob](tm, vec, mpmd.LayoutCyclic)
			}
			if err != nil {
				return err
			}
			rt.OnNode(0, func(th *mpmd.Thread) {
				for range k {
					if err := body(rt, th, a); err != nil {
						t.Error(err)
					}
				}
			})
			return rt.Run()
		}
	}
	blob := distBlobOf(3)
	rows := []struct {
		name               string
		short, bulk, bytes int64
		run                func(m *machine.Machine, k int) error
	}{
		{"SplitC/Read", 2, 0, 96, sc(func(p *splitc.Proc, gp splitc.GPF, _ splitc.GVF, _ []float64) { p.Read(gp) })},
		{"SplitC/Write", 2, 0, 96, sc(func(p *splitc.Proc, gp splitc.GPF, _ splitc.GVF, _ []float64) { p.Write(gp, 1) })},
		{"SplitC/Get", 2, 0, 96, sc(func(p *splitc.Proc, gp splitc.GPF, _ splitc.GVF, v []float64) { p.Get(&v[0], gp); p.Sync() })},
		{"SplitC/Put", 2, 0, 96, sc(func(p *splitc.Proc, gp splitc.GPF, _ splitc.GVF, _ []float64) { p.Put(gp, 1); p.Sync() })},
		{"SplitC/Store", 1, 0, 48, sc(func(p *splitc.Proc, gp splitc.GPF, _ splitc.GVF, _ []float64) { p.Store(gp, 1) })},
		{"SplitC/AtomicAdd", 2, 0, 96, sc(func(p *splitc.Proc, gp splitc.GPF, _ splitc.GVF, _ []float64) { p.AtomicAdd(gp, 1); p.Sync() })},
		{"SplitC/BulkRead", 1, 1, 128, sc(func(p *splitc.Proc, _ splitc.GPF, gv splitc.GVF, v []float64) { p.BulkRead(v, gv) })},
		{"SplitC/BulkWrite", 1, 1, 128, sc(func(p *splitc.Proc, _ splitc.GPF, gv splitc.GVF, v []float64) { p.BulkWrite(gv, v) })},
		{"SplitC/BulkGet", 1, 1, 128, sc(func(p *splitc.Proc, _ splitc.GPF, gv splitc.GVF, v []float64) { p.BulkGet(v, gv); p.Sync() })},
		{"SplitC/BulkStore", 0, 1, 80, sc(func(p *splitc.Proc, _ splitc.GPF, gv splitc.GVF, v []float64) { p.BulkStore(gv, v) })},
		{"CC++/ReadF64", 2, 0, 96, cc(func(rt *core.Runtime, th *mpmd.Thread, a ccArrays) error { rt.ReadF64(th, a.gp); return nil })},
		{"CC++/WriteF64", 2, 0, 96, cc(func(rt *core.Runtime, th *mpmd.Thread, a ccArrays) error { rt.WriteF64(th, a.gp, 1); return nil })},
		{"Dist/Get/words", 2, 0, 96, cc(func(_ *core.Runtime, th *mpmd.Thread, a ccArrays) error { _, err := a.f.Get(th, 1); return err })},
		{"Dist/Put/words", 2, 0, 96, cc(func(_ *core.Runtime, th *mpmd.Thread, a ccArrays) error { return a.f.Put(th, 1, 2.5) })},
		{"Dist/Get/payload", 1, 1, 112, cc(func(_ *core.Runtime, th *mpmd.Thread, a ccArrays) error { _, err := a.b.Get(th, 1); return err })},
		{"Dist/Put/payload", 1, 1, 144, cc(func(_ *core.Runtime, th *mpmd.Thread, a ccArrays) error { return a.b.Put(th, 1, blob) })},
	}
	backends := []struct {
		name string
		new  func() *machine.Machine
	}{
		{"sim", func() *machine.Machine { return machine.New(machine.SP1997(), 2) }},
		{"live", func() *machine.Machine {
			return machine.NewWithBackend(machine.SP1997(), 2, live.New(2, live.Options{Watchdog: 20 * time.Second}))
		}},
	}
	for _, be := range backends {
		for _, row := range rows {
			t.Run(be.name+"/"+row.name, func(t *testing.T) {
				var c [3]machine.CounterSet
				for k := 1; k <= 2; k++ {
					m := be.new()
					if err := row.run(m, k); err != nil {
						t.Fatal(err)
					}
					c[k] = m.Snapshot().Counters
				}
				d := func(n machine.Cnt) int64 { return c[2][n] - c[1][n] }
				if s, b, n := d(machine.CntMsgShort), d(machine.CntMsgBulk), d(machine.CntBytesSent); s != row.short || b != row.bulk || n != row.bytes {
					t.Errorf("one access sent %d short and %d bulk AMs, %d bytes; want %d, %d, %d", s, b, n, row.short, row.bulk, row.bytes)
				}
			})
		}
	}
}
