package em3d

import (
	"encoding/binary"
	"math"
	"time"

	"repro/internal/am"
	"repro/internal/apps/appstat"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/threads"
)

// em3dObj is the per-processor CC++ processor object: it owns the ghost
// arrays and counts bulk deliveries (the one-way-RMI replacement for
// Split-C's store counters).
type em3dObj struct {
	ghostsE, ghostsH []float64
	recvd            am.Count
}

// em3dClass defines the remotely invocable interface of em3dObj. The bulk
// variant's aggregated transfer is the "deliver" method: a threaded RMI
// whose arguments are the packed values plus the destination region.
func em3dClass() *core.Class {
	return &core.Class{
		Name: "Em3d",
		New:  func() any { return &em3dObj{} },
		Methods: []*core.Method{
			{
				// The aggregated ghost bundle travels as a user-marshalled
				// byte buffer (CC++ "programmers have to provide their own
				// data marshalling operations for complex data structures"):
				// a single shallow copy, not per-element serializer calls.
				Name:     "deliverE",
				Threaded: true,
				NewArgs:  func() []core.Arg { return []core.Arg{&core.I64{}, &core.Bytes{}} },
				Fn: func(t *threads.Thread, self any, args []core.Arg, ret core.Arg) {
					o := self.(*em3dObj)
					deliver(t, o.ghostsE, &o.recvd, args)
				},
			},
			{
				Name:     "deliverH",
				Threaded: true,
				NewArgs:  func() []core.Arg { return []core.Arg{&core.I64{}, &core.Bytes{}} },
				Fn: func(t *threads.Thread, self any, args []core.Arg, ret core.Arg) {
					o := self.(*em3dObj)
					deliver(t, o.ghostsH, &o.recvd, args)
				},
			},
		},
	}
}

func deliver(t *threads.Thread, ghosts []float64, recvd *am.Count, args []core.Arg) {
	base := int(args[0].(*core.I64).V)
	raw := args[1].(*core.Bytes).V
	n := len(raw) / 8
	for k := 0; k < n; k++ {
		ghosts[base+k] = math.Float64frombits(binary.LittleEndian.Uint64(raw[k*8:]))
	}
	recvd.Advance(t, uint64(n))
}

func packF64(vals []float64) []byte {
	out := make([]byte, 0, len(vals)*8)
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// RunCCXX executes the CC++ version of EM3D on machine m, one node per
// processor, under the given runtime options (zero Options means CC++/ThAM;
// Options.Nexus is the §6 comparison), mutating g's values and returning the
// measurement.
func RunCCXX(m *machine.Machine, g *Graph, variant Variant, opts core.Options) (*appstat.Result, error) {
	rt := core.NewRuntimeOpts(m, opts)
	rt.RegisterClass(em3dClass())

	ePlan := buildGhostPlan(g.P.Procs, g.EDeps)
	hPlan := buildGhostPlan(g.P.Procs, g.HDeps)

	objs := make([]core.GPtr, g.P.Procs)
	for pc := 0; pc < g.P.Procs; pc++ {
		objs[pc] = rt.CreateObject(pc, "Em3d")
		o := rt.Object(objs[pc]).(*em3dObj)
		o.ghostsE = make([]float64, ePlan.ghostCount(pc))
		o.ghostsH = make([]float64, hPlan.ghostCount(pc))
	}
	bar := rt.NewBarrier(0, g.P.Procs)
	eSeg, hSeg := rt.AddF64(g.EVals), rt.AddF64(g.HVals)

	res := &appstat.Result{
		Lang:      "cc++",
		Variant:   string(variant),
		Transport: rt.TransportName(),
		Work:      int64(g.P.Iters) * int64(g.EdgesPerProc()) * 2,
	}

	for pc := 0; pc < g.P.Procs; pc++ {
		me := pc
		rt.OnNode(me, func(t *threads.Thread) {
			self := rt.Object(objs[me]).(*em3dObj)
			expect := 0

			bar.Arrive(t)
			if me == 0 {
				res.Start(m, t.Now())
			}
			bar.Arrive(t)

			for it := 0; it < g.P.Iters; it++ {
				expect = ccPhase(rt, t, g, variant, me, objs, self, "deliverE",
					g.EVals[me], g.EDeps[me], g.HVals, hSeg, ePlan, self.ghostsE, expect)
				bar.Arrive(t)
				expect = ccPhase(rt, t, g, variant, me, objs, self, "deliverH",
					g.HVals[me], g.HDeps[me], g.EVals, eSeg, hPlan, self.ghostsH, expect)
				bar.Arrive(t)
			}

			if me == 0 {
				res.Stop(t.Now())
				res.Checksum = g.Checksum()
			}
		})
	}
	if err := rt.Run(); err != nil {
		return nil, err
	}
	return res, nil
}

// ccPhase is one half-step of the CC++ program; src is registered as srcSeg.
func ccPhase(rt *core.Runtime, t *threads.Thread, g *Graph, variant Variant, me int, objs []core.GPtr, self *em3dObj, deliverMethod string, dst []float64, deps [][]edge, src [][]float64, srcSeg int, plan *ghostPlan, ghosts []float64, expect int) int {
	cfg := t.Cfg()

	switch variant {
	case Base:
		// Every neighbour access dereferences a global pointer — including
		// local ones, which still pay the runtime's locality check (the
		// em3d-base effect at low remote percentages).
		for i := range dst {
			acc := dst[i]
			for _, e := range deps[i] {
				v := rt.ReadF64(t, core.NewGPF64(e.from.pc, srcSeg, e.from.idx))
				acc -= e.weight * v
			}
			t.Charge(machine.CatCPU, nodeUpdateCost(len(deps[i]), cfg.FlopCost))
			dst[i] = acc
		}
		return expect

	case Ghost:
		// Prefetch all ghost values with a parfor of global-pointer reads
		// (the CC++ latency-hiding idiom; cf. the Prefetch micro-benchmark).
		refs := plan.lists[me]
		core.ParFor(t, len(refs), func(t2 *threads.Thread, s int) {
			r := refs[s]
			ghosts[s] = rt.ReadF64(t2, core.NewGPF64(r.pc, srcSeg, r.idx))
		})
		ccComputeLocal(t, g, me, dst, deps, src, plan, ghosts, cfg)
		return expect

	case Bulk:
		// Aggregate: one one-way RMI per consumer carrying the packed
		// values; then wait for our own deliveries.
		for q := 0; q < g.P.Procs; q++ {
			idxs := plan.exports[me][q]
			if q == me || len(idxs) == 0 {
				continue
			}
			packed := make([]float64, len(idxs))
			for k, idx := range idxs {
				packed[k] = src[me][idx]
			}
			t.Charge(machine.CatCPU, time.Duration(len(idxs)*8)*cfg.MemCopyPerByte)
			rt.CallOneWay(t, objs[q], deliverMethod, []core.Arg{
				&core.I64{V: int64(plan.importBase[q][me])},
				&core.Bytes{V: packF64(packed)},
			})
		}
		expect += plan.ghostCount(me)
		rt.WaitLocal(t, &self.recvd, uint64(expect))
		ccComputeLocal(t, g, me, dst, deps, src, plan, ghosts, cfg)
		return expect
	}
	panic("em3d: unknown variant " + string(variant))
}

// ccComputeLocal is the purely local update loop of the ghost and bulk
// variants.
func ccComputeLocal(t *threads.Thread, g *Graph, me int, dst []float64, deps [][]edge, src [][]float64, plan *ghostPlan, ghosts []float64, cfg *machine.Config) {
	slots := plan.slot[me]
	for i := range dst {
		acc := dst[i]
		for _, e := range deps[i] {
			var v float64
			if e.from.pc == me {
				v = src[me][e.from.idx]
			} else {
				v = ghosts[slots[e.from]]
			}
			acc -= e.weight * v
		}
		t.Charge(machine.CatCPU, nodeUpdateCost(len(deps[i]), cfg.FlopCost))
		dst[i] = acc
	}
}
