// Package taskfarm is an extension experiment beyond the paper's evaluation,
// testing the claim its introduction only asserts: that the MPMD model "is
// well suited for applications that exhibit irregular or unknown
// communication patterns, or that can benefit from a 'client-server' type of
// setting", even though its per-message costs are higher.
//
// The workload is a bag of independent tasks with a heavily skewed,
// unpredictable cost distribution (a deterministic pseudo-random pareto-like
// mix). Two scheduling disciplines compete:
//
//   - Split-C (SPMD): tasks are partitioned statically and processors meet
//     at a barrier — the natural expression in a model where "a fixed number
//     of identical programs … communicate with one another at well defined
//     points in time". Skew shows up as idle time at the barrier.
//   - CC++ (MPMD): a master object hands out tasks on demand via RMI
//     ("client-server"); workers pull whenever they run dry. Each pull costs
//     a full RMI round trip, but no processor waits on another's tail task.
//
// With enough skew the dynamic schedule wins despite MPMD's per-message
// premium — quantifying the software-structure argument the paper makes
// qualitatively.
package taskfarm

import (
	"math/rand"
	"time"

	"repro/internal/apps/appstat"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/splitc"
	"repro/internal/threads"
)

// Params configures a task-farm run.
type Params struct {
	// Tasks is the number of independent tasks.
	Tasks int
	// Procs is the number of processors (workers; the CC++ master shares
	// node 0 with a worker).
	Procs int
	// MeanCost is the average task compute time.
	MeanCost time.Duration
	// Skew shapes the distribution: 0 = uniform costs; larger values
	// concentrate total work in fewer, heavier tasks.
	Skew float64
	// Seed makes the workload deterministic.
	Seed int64
}

// Workload is the realized task list (costs and payload values).
type Workload struct {
	P     Params
	Costs []time.Duration
	Vals  []float64
}

// Build realizes the task list. Task costs are *spatially correlated*, as in
// adaptive codes where refinement concentrates work in one region of the
// domain: a fraction (1-Skew) of the total work is spread uniformly, and the
// remaining Skew fraction sits in a bump around 70% of the index space. A
// block-partitioned SPMD schedule assigns the bump to one unlucky processor;
// a dynamic scheduler packs around it.
func Build(p Params) *Workload {
	rng := rand.New(rand.NewSource(p.Seed))
	w := &Workload{P: p}
	base := float64(p.MeanCost) * (1 - p.Skew)
	const center, width = 0.7, 0.06
	// Normalize the bump so its integral over the task indices is 1.
	norm := 0.0
	for i := 0; i < p.Tasks; i++ {
		norm += bump(float64(i)/float64(p.Tasks), center, width)
	}
	for i := 0; i < p.Tasks; i++ {
		x := float64(i) / float64(p.Tasks)
		cost := base * (0.5 + rng.Float64()) // uniform part, jittered
		cost += float64(p.MeanCost) * p.Skew * float64(p.Tasks) * bump(x, center, width) / norm
		w.Costs = append(w.Costs, time.Duration(cost))
		w.Vals = append(w.Vals, rng.Float64())
	}
	return w
}

// bump is an unnormalized smooth peak at c with the given width.
func bump(x, c, width float64) float64 {
	d := (x - c) / width
	return 1 / (1 + d*d*d*d)
}

// TotalWork sums the task costs.
func (w *Workload) TotalWork() time.Duration {
	var t time.Duration
	for _, c := range w.Costs {
		t += c
	}
	return t
}

// result of processing one task: a deterministic function of its value, so
// both schedulers must produce the same reduction.
func process(v float64) float64 { return v*v + 1 }

// Checksum is the reduction over all task results.
func (w *Workload) Checksum() float64 {
	s := 0.0
	for _, v := range w.Vals {
		s += process(v)
	}
	return s
}

// RunSplitC executes the static-partition SPMD schedule: processor p takes
// the contiguous block of tasks [p*T/P, (p+1)*T/P) — the natural
// locality-preserving SPMD decomposition — everyone meets at a barrier, and
// partial sums are combined with atomic adds. It runs on machine m, one node
// per processor.
func RunSplitC(m *machine.Machine, w *Workload) (*appstat.Result, error) {
	world := splitc.New(m)
	res := &appstat.Result{Lang: "split-c", Variant: "static", Work: int64(w.P.Tasks)}
	sums := make([][]float64, w.P.Procs) // the atomic adds' target, on processor 0
	sums[0] = make([]float64, 1)
	sumSeg := world.Share(sums)

	err := world.Run(func(p *splitc.Proc) {
		me := p.MyPC()
		p.Barrier()
		if me == 0 {
			res.Start(m, p.T.Now())
		}
		p.Barrier()

		partial := 0.0
		lo := me * w.P.Tasks / w.P.Procs
		hi := (me + 1) * w.P.Tasks / w.P.Procs
		for i := lo; i < hi; i++ {
			p.T.Compute(w.Costs[i])
			partial += process(w.Vals[i])
		}
		if me == 0 {
			sums[0][0] += partial
		} else {
			p.AtomicAdd(splitc.GPF{PC: 0, Seg: sumSeg}, partial)
			p.Sync()
		}
		p.Barrier()

		if me == 0 {
			res.Stop(p.T.Now())
			res.Checksum = sums[0][0]
		}
	})
	return res, err
}

// master is the CC++ processor object that owns the bag of tasks and the
// running total.
type master struct {
	w    *Workload
	next int
	sum  float64
	done int
}

func masterClass() *core.Class {
	return &core.Class{
		Name: "Master",
		New:  func() any { return &master{} },
		Methods: []*core.Method{
			{
				// take(n) hands out up to n task indices ([first,count]);
				// count 0 means the bag is empty.
				Name:     "take",
				Threaded: true,
				Atomic:   true,
				NewArgs:  func() []core.Arg { return []core.Arg{&core.I64{}} },
				NewRet:   func() core.Arg { return &core.F64Slice{} },
				Fn: func(t *threads.Thread, self any, args []core.Arg, ret core.Arg) {
					mst := self.(*master)
					n := int(args[0].(*core.I64).V)
					remain := mst.w.P.Tasks - mst.next
					if n > remain {
						n = remain
					}
					ret.(*core.F64Slice).V = []float64{float64(mst.next), float64(n)}
					mst.next += n
				},
			},
			{
				// report(partial, count) folds a worker's contribution in.
				Name:     "report",
				Threaded: true,
				Atomic:   true,
				NewArgs:  func() []core.Arg { return []core.Arg{&core.F64{}, &core.I64{}} },
				Fn: func(t *threads.Thread, self any, args []core.Arg, ret core.Arg) {
					mst := self.(*master)
					mst.sum += args[0].(*core.F64).V
					mst.done += int(args[1].(*core.I64).V)
				},
			},
		},
	}
}

// RunCCXX executes the dynamic MPMD schedule: node 0 is dedicated to the
// master object (in a polling, non-preemptive runtime a compute-bound node
// cannot serve scheduling requests promptly, so the master must not compute
// — itself an MPMD-style asymmetry no SPMD program can express), and nodes
// 1..P-1 run worker loops pulling task batches until the bag is empty. The
// dynamic schedule therefore starts a full worker down on the static one and
// pays an RMI per batch; it wins only when imbalance costs the static
// schedule more. It runs on machine m, one node per processor.
func RunCCXX(m *machine.Machine, w *Workload, batch int) (*appstat.Result, error) {
	if batch < 1 {
		batch = 1
	}
	rt := core.NewRuntimeOpts(m, core.Options{})
	rt.RegisterClass(masterClass())
	gp := rt.CreateObject(0, "Master")
	mst := rt.Object(gp).(*master)
	mst.w = w
	bar := rt.NewBarrier(0, w.P.Procs)

	res := &appstat.Result{Lang: "cc++", Variant: "dynamic", Transport: rt.TransportName(), Work: int64(w.P.Tasks)}

	for pc := 0; pc < w.P.Procs; pc++ {
		me := pc
		rt.OnNode(me, func(t *threads.Thread) {
			bar.Arrive(t)
			if me == 0 {
				res.Start(m, t.Now())
			}
			bar.Arrive(t)

			if me != 0 {
				// Worker loop: pull, compute, repeat.
				partial := 0.0
				count := 0
				for {
					var grant core.F64Slice
					rt.Call(t, gp, "take", []core.Arg{&core.I64{V: int64(batch)}}, &grant)
					first, n := int(grant.V[0]), int(grant.V[1])
					if n == 0 {
						break
					}
					for i := first; i < first+n; i++ {
						t.Compute(w.Costs[i])
						partial += process(w.Vals[i])
						count++
					}
				}
				rt.Call(t, gp, "report", []core.Arg{&core.F64{V: partial}, &core.I64{V: int64(count)}}, nil)
			}
			bar.Arrive(t)

			if me == 0 {
				res.Stop(t.Now())
				res.Checksum = mst.sum
			}
		})
	}
	if err := rt.Run(); err != nil {
		return nil, err
	}
	return res, nil
}
