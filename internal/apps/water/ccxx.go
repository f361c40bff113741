package water

import (
	"time"

	"repro/internal/apps/appstat"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/threads"
)

// waterObj is the per-processor CC++ processor object owning one block of
// molecules. Remote force accumulation and the position-bundle fetch are its
// remotely invocable methods.
type waterObj struct {
	s  *State
	me int
}

func waterClass() *core.Class {
	return &core.Class{
		Name: "Water",
		New:  func() any { return &waterObj{} },
		Methods: []*core.Method{
			{
				// addForce(k, v): one atomic read-modify-write of a force
				// component — mirroring the Split-C version's three atomic
				// adds per remote pair ("the CC++ version ... is heavily
				// based on the original Split-C implementations to allow for
				// a fair comparison").
				Name:     "addForce",
				Threaded: true,
				Atomic:   true,
				NewArgs:  func() []core.Arg { return []core.Arg{&core.I64{}, &core.F64{}} },
				Fn: func(t *threads.Thread, self any, args []core.Arg, ret core.Arg) {
					o := self.(*waterObj)
					o.s.Frc[o.me][args[0].(*core.I64).V] += args[1].(*core.F64).V
				},
			},
			{
				// addPot(v): atomic contribution to the global potential.
				Name:     "addPot",
				Threaded: true,
				Atomic:   true,
				NewArgs:  func() []core.Arg { return []core.Arg{&core.F64{}} },
				Fn: func(t *threads.Thread, self any, args []core.Arg, ret core.Arg) {
					o := self.(*waterObj)
					o.s.Pot[o.me] += args[0].(*core.F64).V
				},
			},
			{
				// getCoord(k): one atomic read of a remote molecule datum —
				// the water-atomic access primitive ("issues atomic reads
				// ... to access the remote molecules"). Runs threaded and
				// holds the object lock, contending with addForce traffic.
				Name:     "getCoord",
				Threaded: true,
				Atomic:   true,
				NewArgs:  func() []core.Arg { return []core.Arg{&core.I64{}} },
				NewRet:   func() core.Arg { return &core.F64{} },
				Fn: func(t *threads.Thread, self any, args []core.Arg, ret core.Arg) {
					o := self.(*waterObj)
					ret.(*core.F64).V = o.s.Pos[o.me][args[0].(*core.I64).V]
				},
			},
			{
				// getPositions() returns the block's position bundle — the
				// selective-prefetch fetch, paying the bulk-return double
				// copy at the initiator.
				Name:     "getPositions",
				Threaded: true,
				NewRet:   func() core.Arg { return &core.F64Slice{} },
				Fn: func(t *threads.Thread, self any, args []core.Arg, ret core.Arg) {
					o := self.(*waterObj)
					out := ret.(*core.F64Slice)
					if cap(out.V) < len(o.s.Pos[o.me]) {
						out.V = make([]float64, len(o.s.Pos[o.me]))
					}
					out.V = out.V[:len(o.s.Pos[o.me])]
					copy(out.V, o.s.Pos[o.me])
				},
			},
		},
	}
}

// RunCCXX executes the CC++ version of Water on machine m, one node per
// processor, under the given runtime options (zero Options means CC++/ThAM),
// mutating s and returning the measurement.
func RunCCXX(m *machine.Machine, s *State, variant Variant, opts core.Options) (*appstat.Result, error) {
	rt := core.NewRuntimeOpts(m, opts)
	rt.RegisterClass(waterClass())

	objs := make([]core.GPtr, s.P.Procs)
	for pc := 0; pc < s.P.Procs; pc++ {
		objs[pc] = rt.CreateObject(pc, "Water")
		o := rt.Object(objs[pc]).(*waterObj)
		o.s, o.me = s, pc
	}
	bar := rt.NewBarrier(0, s.P.Procs)

	res := &appstat.Result{
		Lang:      "cc++",
		Variant:   string(variant),
		Transport: rt.TransportName(),
		Work:      int64(s.P.Steps) * int64(s.P.N) * int64(s.P.N-1) / 2,
	}

	for pc := 0; pc < s.P.Procs; pc++ {
		me := pc
		rt.OnNode(me, func(t *threads.Thread) {
			n := s.P.N
			base := me * s.PerProc
			mirror := make([][]float64, s.P.Procs)
			for q := range mirror {
				if q != me {
					mirror[q] = make([]float64, s.PerProc*3)
				}
			}

			bar.Arrive(t)
			if me == 0 {
				res.Start(m, t.Now())
			}
			bar.Arrive(t)

			for step := 0; step < s.P.Steps; step++ {
				for k := range s.Frc[me] {
					s.Frc[me][k] = 0
				}
				bar.Arrive(t)

				if variant == Prefetch {
					// Bundle-fetch remote position blocks via bulk RMIs.
					for q := me + 1; q < s.P.Procs; q++ {
						var ret core.F64Slice
						ret.V = mirror[q]
						rt.Call(t, objs[q], "getPositions", nil, &ret)
						copy(mirror[q], ret.V)
					}
				}

				pot := 0.0
				var pending []*core.Future
				for li := 0; li < s.PerProc; li++ {
					gi := base + li
					xi, yi, zi := s.Pos[me][li*3], s.Pos[me][li*3+1], s.Pos[me][li*3+2]
					pairs := 0
					for j := gi + 1; j < n; j++ {
						pj, lj := s.Owner(j), s.Local(j)
						var xj, yj, zj float64
						if pj == me {
							xj, yj, zj = s.Pos[me][lj*3], s.Pos[me][lj*3+1], s.Pos[me][lj*3+2]
						} else if variant == Prefetch {
							xj, yj, zj = mirror[pj][lj*3], mirror[pj][lj*3+1], mirror[pj][lj*3+2]
						} else {
							var rx, ry, rz core.F64
							rt.Call(t, objs[pj], "getCoord", []core.Arg{&core.I64{V: int64(lj * 3)}}, &rx)
							rt.Call(t, objs[pj], "getCoord", []core.Arg{&core.I64{V: int64(lj*3 + 1)}}, &ry)
							rt.Call(t, objs[pj], "getCoord", []core.Arg{&core.I64{V: int64(lj*3 + 2)}}, &rz)
							xj, yj, zj = rx.V, ry.V, rz.V
						}
						fx, fy, fz, pp := pairForce(xi, yi, zi, xj, yj, zj)
						s.Frc[me][li*3] += fx
						s.Frc[me][li*3+1] += fy
						s.Frc[me][li*3+2] += fz
						pot += pp
						if pj == me {
							s.Frc[me][lj*3] -= fx
							s.Frc[me][lj*3+1] -= fy
							s.Frc[me][lj*3+2] -= fz
						} else {
							pending = append(pending,
								rt.CallAsync(t, objs[pj], "addForce", []core.Arg{
									&core.I64{V: int64(lj * 3)}, &core.F64{V: -fx}}, nil),
								rt.CallAsync(t, objs[pj], "addForce", []core.Arg{
									&core.I64{V: int64(lj*3 + 1)}, &core.F64{V: -fy}}, nil),
								rt.CallAsync(t, objs[pj], "addForce", []core.Arg{
									&core.I64{V: int64(lj*3 + 2)}, &core.F64{V: -fz}}, nil))
						}
						pairs++
					}
					t.Charge(machine.CatCPU, time.Duration(flopsPerPair*pairs)*t.Cfg().FlopCost)
				}
				for _, f := range pending {
					f.Wait(t)
				}
				if me == 0 {
					s.Pot[0] += pot
				} else {
					rt.Call(t, objs[0], "addPot", []core.Arg{&core.F64{V: pot}}, nil)
				}
				bar.Arrive(t)

				integrateProc(s, me)
				t.Charge(machine.CatCPU, integrateCost(s, t.Cfg().FlopCost))
				bar.Arrive(t)
			}

			if me == 0 {
				s.Energy = s.Pot[0]
				res.Stop(t.Now())
				res.Checksum = s.Checksum()
			}
		})
	}
	if err := rt.Run(); err != nil {
		return nil, err
	}
	return res, nil
}
