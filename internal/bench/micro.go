package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/am"
	"repro/internal/apps/appstat"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/splitc"
	"repro/internal/threads"
)

// MicroRow is one line of Table 4.
type MicroRow struct {
	Name string `json:"name"`

	// CC++ columns.
	CCTotal   time.Duration `json:"cc_total"`
	CCAM      time.Duration `json:"cc_am"`
	CCThreads time.Duration `json:"cc_threads"`
	CCYield   float64       `json:"cc_yields"`
	CCCreate  float64       `json:"cc_creates"`
	CCSync    float64       `json:"cc_syncops"`
	CCRuntime time.Duration `json:"cc_runtime"`

	// Split-C columns (HasSC false renders as "-", like the paper's N/A
	// rows: Split-C has no RMI, so the null-RMI variants have no analogue).
	HasSC     bool          `json:"has_sc"`
	SCTotal   time.Duration `json:"sc_total"`
	SCAM      time.Duration `json:"sc_am"`
	SCRuntime time.Duration `json:"sc_runtime"`
}

// benchClass is the processor object the micro-benchmarks invoke, mirroring
// Figure 3's pseudo-code: null methods in every dispatch flavour, bulk get
// and put of an array of 20 doubles.
func benchClass() *core.Class {
	return &core.Class{
		Name: "Bench",
		New:  func() any { return &benchObj{arr: make([]float64, 20)} },
		Methods: []*core.Method{
			{Name: "foo", Fn: func(t *threads.Thread, self any, a []core.Arg, r core.Arg) {}},
			{Name: "foo1", NewArgs: args1,
				Fn: func(t *threads.Thread, self any, a []core.Arg, r core.Arg) {}},
			{Name: "foo2", NewArgs: args2,
				Fn: func(t *threads.Thread, self any, a []core.Arg, r core.Arg) {}},
			{Name: "fooThreaded", Threaded: true,
				Fn: func(t *threads.Thread, self any, a []core.Arg, r core.Arg) {}},
			{Name: "atomicFoo", Threaded: true, Atomic: true,
				Fn: func(t *threads.Thread, self any, a []core.Arg, r core.Arg) {}},
			{Name: "put", Threaded: true,
				NewArgs: func() []core.Arg { return []core.Arg{&core.F64Slice{}} },
				Fn: func(t *threads.Thread, self any, a []core.Arg, r core.Arg) {
					copy(self.(*benchObj).arr, a[0].(*core.F64Slice).V)
				}},
			{Name: "get", Threaded: true,
				NewArgs: args1,
				NewRet:  func() core.Arg { return &core.F64Slice{} },
				Fn: func(t *threads.Thread, self any, a []core.Arg, r core.Arg) {
					o := self.(*benchObj)
					out := r.(*core.F64Slice)
					if cap(out.V) < len(o.arr) {
						out.V = make([]float64, len(o.arr))
					}
					out.V = out.V[:len(o.arr)]
					copy(out.V, o.arr)
				}},
		},
	}
}

type benchObj struct{ arr []float64 }

func args1() []core.Arg { return []core.Arg{&core.I64{}} }
func args2() []core.Arg { return []core.Arg{&core.I64{}, &core.I64{}} }

// ccMeasurement is what one CC++ micro-benchmark produces.
type ccMeasurement struct {
	total, threads, runtime  time.Duration
	yields, creates, syncops float64
}

// remoteSeg is the segment every CC++ rig registers first: 20 doubles on node
// 1, which the GP rows read through global pointers.
const remoteSeg = 0

// measureCC runs body iters times on node 0 of a fresh 2-node CC++ rig and
// reconstructs the paper's columns: Total from timestamps, the thread
// columns from operation counts × unit costs (the paper's own estimation
// method), Runtime from the runtime bucket, and AM = Total − Threads −
// Runtime.
func measureCC(cfg machine.Config, iters int, opts core.Options, body func(rt *core.Runtime, gp core.GPtr, t *threads.Thread)) ccMeasurement {
	return measureCCNodes(cfg, iters, opts, body, false)
}

// measureCCNodes optionally restricts accounting to the initiating node
// (used for the pipelined prefetch row, where receiver-side work overlaps
// the wire and the paper reports initiator-side thread/runtime costs).
func measureCCNodes(cfg machine.Config, iters int, opts core.Options, body func(rt *core.Runtime, gp core.GPtr, t *threads.Thread), senderOnly bool) ccMeasurement {
	m := machine.New(cfg, 2)
	rt := core.NewRuntimeOpts(m, opts)
	rt.RegisterClass(benchClass())
	gp := rt.CreateObject(1, "Bench")
	rt.AddF64([][]float64{nil, make([]float64, 20)}) // remoteSeg
	var out ccMeasurement
	rt.OnNode(0, func(t *threads.Thread) {
		// Warm up the stub cache and persistent buffers.
		for i := 0; i < 3; i++ {
			body(rt, gp, t)
		}
		rg := appstat.Open(m, t.Now())
		for i := 0; i < iters; i++ {
			body(rt, gp, t)
		}
		out.total = (t.Now() - rg.Begin) / time.Duration(iters)
		ds := rg.Deltas()
		if senderOnly {
			ds = ds[:1]
		}
		delta := machine.MergeSnapshots(ds...)
		fi := float64(iters)
		out.yields = float64(delta.Counters[machine.CntContextSwitch]) / fi
		out.creates = float64(delta.Counters[machine.CntThreadCreate]) / fi
		out.syncops = float64(delta.Counters[machine.CntSyncOp]) / fi
		out.threads = time.Duration(out.yields*float64(cfg.ContextSwitch) +
			out.creates*float64(cfg.ThreadCreate) +
			out.syncops*float64(cfg.SyncOp))
		out.runtime = delta.Get(machine.CatRuntime) / time.Duration(iters)
	})
	if err := rt.Run(); err != nil {
		panic(err)
	}
	return out
}

// scMeasurement is what one Split-C micro-benchmark produces.
type scMeasurement struct {
	total, runtime time.Duration
}

// measureSC runs body iters times on node 0 of a fresh 2-node Split-C world.
// remote is 32 doubles of node 1's memory.
func measureSC(cfg machine.Config, iters int, body func(p *splitc.Proc, remote splitc.Seg, local []float64)) scMeasurement {
	m := machine.New(cfg, 2)
	w := splitc.New(m)
	remote := w.Share([][]float64{nil, make([]float64, 32)})
	local := make([]float64, 32)
	var out scMeasurement
	err := w.Run(func(p *splitc.Proc) {
		if p.MyPC() == 0 {
			body(p, remote, local) // warm-up
			rg := appstat.Open(m, p.T.Now())
			for i := 0; i < iters; i++ {
				body(p, remote, local)
			}
			out.total = (p.T.Now() - rg.Begin) / time.Duration(iters)
			out.runtime = machine.MergeSnapshots(rg.Deltas()...).Get(machine.CatRuntime) / time.Duration(iters)
		}
		p.Barrier()
	})
	if err != nil {
		panic(err)
	}
	return out
}

// RunMicro reproduces Table 4.
func RunMicro(cfg machine.Config, sc Scale) []MicroRow {
	iters := sc.MicroIters
	rows := []MicroRow{}

	add := func(name string, cc ccMeasurement, scm *scMeasurement) {
		r := MicroRow{
			Name:    name,
			CCTotal: cc.total, CCThreads: cc.threads,
			CCYield: cc.yields, CCCreate: cc.creates, CCSync: cc.syncops,
			CCRuntime: cc.runtime,
			CCAM:      cc.total - cc.threads - cc.runtime,
		}
		if scm != nil {
			r.HasSC = true
			r.SCTotal = scm.total
			r.SCRuntime = scm.runtime
			r.SCAM = scm.total - scm.runtime
		}
		rows = append(rows, r)
	}

	// Null-RMI variants (no Split-C analogue).
	add("0-Word Simple", measureCC(cfg, iters, core.Options{},
		func(rt *core.Runtime, gp core.GPtr, t *threads.Thread) {
			rt.CallSimple(t, gp, "foo", nil, nil)
		}), nil)
	add("0-Word", measureCC(cfg, iters, core.Options{},
		func(rt *core.Runtime, gp core.GPtr, t *threads.Thread) {
			rt.Call(t, gp, "foo", nil, nil)
		}), nil)
	add("1-Word", measureCC(cfg, iters, core.Options{},
		func(rt *core.Runtime, gp core.GPtr, t *threads.Thread) {
			rt.Call(t, gp, "foo1", []core.Arg{&core.I64{V: 1}}, nil)
		}), nil)
	add("2-Word", measureCC(cfg, iters, core.Options{},
		func(rt *core.Runtime, gp core.GPtr, t *threads.Thread) {
			rt.Call(t, gp, "foo2", []core.Arg{&core.I64{V: 1}, &core.I64{V: 2}}, nil)
		}), nil)
	add("0-Word Threaded", measureCC(cfg, iters, core.Options{},
		func(rt *core.Runtime, gp core.GPtr, t *threads.Thread) {
			rt.Call(t, gp, "fooThreaded", nil, nil)
		}), nil)

	// 0-Word Atomic: Split-C's atomic remote operation alongside.
	scAtomic := measureSC(cfg, iters, func(p *splitc.Proc, remote splitc.Seg, local []float64) {
		p.AtomicAdd(splitc.GPF{PC: 1, Seg: remote}, 1)
		p.Sync()
	})
	add("0-Word Atomic", measureCC(cfg, iters, core.Options{},
		func(rt *core.Runtime, gp core.GPtr, t *threads.Thread) {
			rt.Call(t, gp, "atomicFoo", nil, nil)
		}), &scAtomic)

	// GP 2-word read/write.
	scGP := measureSC(cfg, iters, func(p *splitc.Proc, remote splitc.Seg, local []float64) {
		local[0] = p.Read(splitc.GPF{PC: 1, Seg: remote})
	})
	add("GP 2-Word R/W", measureCC(cfg, iters, core.Options{},
		func(rt *core.Runtime, gp core.GPtr, t *threads.Thread) {
			_ = rt.ReadF64(t, core.NewGPF64(1, remoteSeg, 0))
		}), &scGP)

	// Bulk transfers of 20 doubles (40 words).
	arr := make([]float64, 20)
	scBW := measureSC(cfg, iters, func(p *splitc.Proc, remote splitc.Seg, local []float64) {
		p.BulkWrite(splitc.GVF{PC: 1, Seg: remote, Len: 20}, local[:20])
	})
	add("BulkWrite 40-Word", measureCC(cfg, iters, core.Options{},
		func(rt *core.Runtime, gp core.GPtr, t *threads.Thread) {
			rt.Call(t, gp, "put", []core.Arg{&core.F64Slice{V: arr}}, nil)
		}), &scBW)

	scBR := measureSC(cfg, iters, func(p *splitc.Proc, remote splitc.Seg, local []float64) {
		p.BulkRead(local[:20], splitc.GVF{PC: 1, Seg: remote, Len: 20})
	})
	retArr := &core.F64Slice{V: make([]float64, 20)}
	add("BulkRead 40-Word", measureCC(cfg, iters, core.Options{},
		func(rt *core.Runtime, gp core.GPtr, t *threads.Thread) {
			rt.Call(t, gp, "get", []core.Arg{&core.I64{V: 0}}, retArr)
		}), &scBR)

	// Prefetch of 20 remote doubles; reported per element like the paper.
	scPF := measureSC(cfg, iters/10+1, func(p *splitc.Proc, remote splitc.Seg, local []float64) {
		for i := 0; i < 20; i++ {
			p.Get(&local[i], splitc.GPF{PC: 1, Seg: remote, Off: i})
		}
		p.Sync()
	})
	scPF.total /= 20
	scPF.runtime /= 20
	ccPF := measureCCNodes(cfg, iters/10+1, core.Options{},
		func(rt *core.Runtime, gp core.GPtr, t *threads.Thread) {
			core.ParFor(t, 20, func(t2 *threads.Thread, i int) {
				_ = rt.ReadF64(t2, core.NewGPF64(1, remoteSeg, i))
			})
		}, true)
	ccPF.total /= 20
	ccPF.threads /= 20
	ccPF.runtime /= 20
	ccPF.yields /= 20
	ccPF.creates /= 20
	ccPF.syncops /= 20
	add("Prefetch 20-Word (per elem)", ccPF, &scPF)

	return rows
}

// MPLReferenceRTT measures the IBM MPL round trip the paper quotes (88 µs).
func MPLReferenceRTT(cfg machine.Config, iters int) time.Duration {
	rtt, _ := mplPingPong(cfg, iters)
	return rtt
}

// mplPingPong runs iters round trips of IBM's MPL and returns the mean round
// trip and the machine's accounting. MPL is a price on Active Messages, not a
// second message layer: each side's thread sends a short message and awaits
// the count its peer's message advances, on a net whose profile raises the
// send and receive overheads to MPL's per-side overhead.
func mplPingPong(cfg machine.Config, iters int) (time.Duration, machine.Snapshot) {
	m := machine.New(cfg, 2)
	net := am.NewNet(m, am.Profile{
		ExtraSendCPU: cfg.MPLOverhead - cfg.SendOverhead,
		ExtraRecvCPU: cfg.MPLOverhead - cfg.RecvOverhead,
	})
	var arrived [2]am.Count // node i's, advanced by each message it handles
	h := net.Register("mpl.msg", func(t *threads.Thread, _ am.Msg) { arrived[t.Node().ID].Advance(t, 1) })
	var s [2]*threads.Scheduler
	for i := range s {
		s[i] = threads.NewScheduler(m.Node(i))
		net.Endpoint(i).Attach(s[i])
	}
	ep0, ep1 := net.Endpoint(0), net.Endpoint(1)
	var rtt time.Duration
	s[0].Start("rank0", func(t *threads.Thread) {
		start := t.Now()
		for i := uint64(1); i <= uint64(iters); i++ {
			ep0.Request(t, 1, h, [4]uint64{}, nil, false)
			ep0.Await(t, &arrived[0], i)
		}
		rtt = time.Duration(t.Now()-start) / time.Duration(iters)
	})
	s[1].Start("rank1", func(t *threads.Thread) {
		for i := uint64(1); i <= uint64(iters); i++ {
			ep1.Await(t, &arrived[1], i)
			ep1.Request(t, 0, h, [4]uint64{}, nil, false)
		}
	})
	if err := m.Run(); err != nil {
		panic(err)
	}
	return rtt, m.Snapshot()
}

// FormatMicro renders Table 4 with the paper's measured values alongside.
func FormatMicro(rows []MicroRow, mplRTT time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: micro-benchmarks (CC++/ThAM vs Split-C on the modelled SP)\n")
	fmt.Fprintf(&b, "%-28s | %7s %7s %7s %5s %6s %5s %7s | %7s %7s %7s | %9s %9s\n",
		"benchmark", "ccTot", "ccAM", "ccThr", "yld", "crt", "syn", "ccRT",
		"scTot", "scAM", "scRT", "paperCC", "paperSC")
	f := func(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1000.0) }
	for _, r := range rows {
		sc1, sc2, sc3 := "-", "-", "-"
		if r.HasSC {
			sc1, sc2, sc3 = f(r.SCTotal), f(r.SCAM), f(r.SCRuntime)
		}
		p := paperTable4[r.Name]
		fmt.Fprintf(&b, "%-28s | %7s %7s %7s %5.1f %6.1f %5.1f %7s | %7s %7s %7s | %9s %9s\n",
			r.Name, f(r.CCTotal), f(r.CCAM), f(r.CCThreads),
			r.CCYield, r.CCCreate, r.CCSync, f(r.CCRuntime),
			sc1, sc2, sc3, p.cc, p.sc)
	}
	fmt.Fprintf(&b, "%-28s | %7s µs (paper: 88 µs)\n", "MPL round-trip (reference)", f(mplRTT))
	fmt.Fprintf(&b, "(all times in µs per operation; yld/crt/syn are thread ops per iteration)\n")
	return b.String()
}
