package em3d

import (
	"time"

	"repro/internal/apps/appstat"
	"repro/internal/machine"
	"repro/internal/splitc"
)

// Variant selects the program version, per §5.
type Variant string

// The three EM3D program versions of the paper.
const (
	Base  Variant = "base"
	Ghost Variant = "ghost"
	Bulk  Variant = "bulk"
)

// Variants lists the program versions in the paper's order.
func Variants() []Variant { return []Variant{Base, Ghost, Bulk} }

// RunSplitC executes the Split-C version of EM3D on machine m, one node per
// processor, mutating g's values and returning the measurement.
func RunSplitC(m *machine.Machine, g *Graph, variant Variant) (*appstat.Result, error) {
	w := splitc.New(m)

	ePlan := buildGhostPlan(g.P.Procs, g.EDeps) // H values needed by the E phase
	hPlan := buildGhostPlan(g.P.Procs, g.HDeps) // E values needed by the H phase

	// Ghost arrays are owned by their processor but allocated up front so
	// peers can address them in bulk stores (a Split-C program would expose
	// them as spread arrays).
	ghostsE := make([][]float64, g.P.Procs)
	ghostsH := make([][]float64, g.P.Procs)
	for pc := 0; pc < g.P.Procs; pc++ {
		ghostsE[pc] = make([]float64, ePlan.ghostCount(pc))
		ghostsH[pc] = make([]float64, hPlan.ghostCount(pc))
	}
	eSeg, hSeg := w.Share(g.EVals), w.Share(g.HVals)
	geSeg, ghSeg := w.Share(ghostsE), w.Share(ghostsH)

	res := &appstat.Result{
		Lang:    "split-c",
		Variant: string(variant),
		Work:    int64(g.P.Iters) * int64(g.EdgesPerProc()) * 2,
	}

	err := w.Run(func(p *splitc.Proc) {
		me := p.MyPC()
		expect := 0

		p.Barrier()
		if me == 0 {
			res.Start(m, p.T.Now())
		}
		p.Barrier()

		for it := 0; it < g.P.Iters; it++ {
			expect = scPhase(p, g, variant, g.EVals[me], g.EDeps[me], g.HVals, hSeg, ePlan, ghostsE, geSeg, expect)
			p.Barrier()
			expect = scPhase(p, g, variant, g.HVals[me], g.HDeps[me], g.EVals, eSeg, hPlan, ghostsH, ghSeg, expect)
			p.Barrier()
		}

		if me == 0 {
			res.Stop(p.T.Now())
			res.Checksum = g.Checksum()
		}
	})
	return res, err
}

// scPhase runs one half-step on processor p.MyPC(): make remote source
// values available per the variant's strategy, then update dst. src and
// ghosts are shared as srcSeg and ghostSeg. It returns the updated
// cumulative one-way-store expectation (bulk variant only).
func scPhase(p *splitc.Proc, g *Graph, variant Variant, dst []float64, deps [][]edge, src [][]float64, srcSeg splitc.Seg, plan *ghostPlan, ghosts [][]float64, ghostSeg splitc.Seg, expect int) int {
	me := p.MyPC()
	cfg := p.T.Cfg()

	switch variant {
	case Base:
		// Every remote neighbour access is a blocking global-pointer read,
		// repeated for every edge (no caching).
		for i := range dst {
			acc := dst[i]
			for _, e := range deps[i] {
				var v float64
				if e.from.pc == me {
					v = src[me][e.from.idx]
				} else {
					v = p.Read(splitc.GPF{PC: e.from.pc, Seg: srcSeg, Off: e.from.idx})
				}
				acc -= e.weight * v
			}
			p.T.Charge(machine.CatCPU, nodeUpdateCost(len(deps[i]), cfg.FlopCost))
			dst[i] = acc
		}
		return expect

	case Ghost:
		// Fetch each distinct remote value once with pipelined split-phase
		// gets, then compute locally.
		mine := ghosts[me]
		for s, r := range plan.lists[me] {
			p.Get(&mine[s], splitc.GPF{PC: r.pc, Seg: srcSeg, Off: r.idx})
		}
		p.Sync()
		computeLocal(p, g, dst, deps, src, plan, mine, cfg)
		return expect

	case Bulk:
		// Aggregate: push this processor's boundary values to each consumer
		// with one bulk store per destination, then wait for our own
		// imports to land.
		for q := 0; q < g.P.Procs; q++ {
			idxs := plan.exports[me][q]
			if q == me || len(idxs) == 0 {
				continue
			}
			packed := make([]float64, len(idxs))
			for k, idx := range idxs {
				packed[k] = src[me][idx]
			}
			p.T.Charge(machine.CatCPU, time.Duration(len(idxs)*8)*cfg.MemCopyPerByte)
			base := plan.importBase[q][me]
			p.BulkStore(splitc.GVF{PC: q, Seg: ghostSeg, Off: base, Len: len(idxs)}, packed)
		}
		expect += plan.ghostCount(me)
		p.WaitStores(expect)
		computeLocal(p, g, dst, deps, src, plan, ghosts[me], cfg)
		return expect
	}
	panic("em3d: unknown variant " + string(variant))
}

// computeLocal updates dst reading only local and ghost values.
func computeLocal(p *splitc.Proc, g *Graph, dst []float64, deps [][]edge, src [][]float64, plan *ghostPlan, ghosts []float64, cfg *machine.Config) {
	me := p.MyPC()
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
		p.T.Charge(machine.CatCPU, nodeUpdateCost(len(deps[i]), cfg.FlopCost))
		dst[i] = acc
	}
}
