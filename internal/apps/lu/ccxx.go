package lu

import (
	"repro/internal/am"
	"repro/internal/apps/appstat"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/threads"
)

// luObj is the per-processor CC++ processor object owning a share of the
// blocked matrix.
type luObj struct {
	s        *State
	me       int
	pivotBuf []float64
	recvd    am.Count
}

func luClass() *core.Class {
	return &core.Class{
		Name: "LU",
		New:  func() any { return &luObj{} },
		Methods: []*core.Method{
			{
				// putPivot(data): the RMI replacement for the one-way pivot
				// broadcast store.
				Name:     "putPivot",
				Threaded: true,
				NewArgs:  func() []core.Arg { return []core.Arg{&core.F64Slice{}} },
				Fn: func(t *threads.Thread, self any, args []core.Arg, ret core.Arg) {
					o := self.(*luObj)
					copy(o.pivotBuf, args[0].(*core.F64Slice).V)
					o.recvd.Advance(t, 1)
				},
			},
			{
				// getBlock(I, J): the RMI replacement for the split-phase
				// prefetch; returns a copy of the block (paying the
				// bulk-return double copy at the initiator).
				Name:     "getBlock",
				Threaded: true,
				NewArgs:  func() []core.Arg { return []core.Arg{&core.I64{}, &core.I64{}} },
				NewRet:   func() core.Arg { return &core.F64Slice{} },
				Fn: func(t *threads.Thread, self any, args []core.Arg, ret core.Arg) {
					o := self.(*luObj)
					I := int(args[0].(*core.I64).V)
					J := int(args[1].(*core.I64).V)
					blk := o.s.Blocks[o.me][[2]int{I, J}]
					out := ret.(*core.F64Slice)
					if cap(out.V) < len(blk) {
						out.V = make([]float64, len(blk))
					}
					out.V = out.V[:len(blk)]
					copy(out.V, blk)
				},
			},
		},
	}
}

// RunCCXX executes the CC++ version of blocked LU (cc-lu) on machine m, one
// node per processor, under the given runtime options (zero Options means
// CC++/ThAM), mutating s and returning the measurement.
func RunCCXX(m *machine.Machine, s *State, opts core.Options) (*appstat.Result, error) {
	rt := core.NewRuntimeOpts(m, opts)
	rt.RegisterClass(luClass())
	b := s.P.B

	objs := make([]core.GPtr, s.P.Procs)
	for pc := 0; pc < s.P.Procs; pc++ {
		objs[pc] = rt.CreateObject(pc, "LU")
		o := rt.Object(objs[pc]).(*luObj)
		o.s, o.me = s, pc
		o.pivotBuf = make([]float64, b*b)
	}
	bar := rt.NewBarrier(0, s.P.Procs)

	res := &appstat.Result{
		Lang:      "cc++",
		Variant:   "lu",
		Transport: rt.TransportName(),
		Work:      int64(s.NB) * int64(s.NB) * int64(s.NB) / 3,
	}

	for pc := 0; pc < s.P.Procs; pc++ {
		me := pc
		rt.OnNode(me, func(t *threads.Thread) {
			self := rt.Object(objs[me]).(*luObj)
			cfgT := t.Cfg()
			expect := 0

			bar.Arrive(t)
			if me == 0 {
				res.Start(m, t.Now())
			}
			bar.Arrive(t)

			for I := 0; I < s.NB; I++ {
				// Sub-step 1: factor and broadcast the pivot block via RMIs.
				if s.Owner(I, I) == me {
					piv := s.Blocks[me][[2]int{I, I}]
					factorBlock(piv, b)
					t.Charge(machine.CatCPU, kernelCost(factorFlops(b), cfgT.FlopCost))
					for q := 0; q < s.P.Procs; q++ {
						rt.CallOneWay(t, objs[q], "putPivot", []core.Arg{&core.F64Slice{V: piv}})
					}
				}
				expect++
				rt.WaitLocal(t, &self.recvd, uint64(expect))
				piv := self.pivotBuf

				// Sub-step 2: perimeter updates.
				for J := I + 1; J < s.NB; J++ {
					if s.Owner(I, J) == me {
						solveRow(piv, s.Blocks[me][[2]int{I, J}], b)
						t.Charge(machine.CatCPU, kernelCost(solveFlops(b), cfgT.FlopCost))
					}
				}
				for K := I + 1; K < s.NB; K++ {
					if s.Owner(K, I) == me {
						solveCol(piv, s.Blocks[me][[2]int{K, I}], b)
						t.Charge(machine.CatCPU, kernelCost(solveFlops(b), cfgT.FlopCost))
					}
				}
				bar.Arrive(t)

				// Sub-step 3: fetch the needed perimeter blocks with plain
				// (synchronous) RMIs — "the one-way stores and prefetches
				// are replaced by RMIs" — then update the interior. Each
				// fetch blocks for the bulk round trip plus the return
				// path's double copy; this is where cc-lu loses most of its
				// ground to sc-lu's pipelined split-phase prefetches.
				rowCache := make(map[int][]float64)
				colCache := make(map[int][]float64)
				fetch := func(I2, J2 int, cache map[int][]float64, key int) {
					if _, ok := cache[key]; ok {
						return
					}
					own := s.Owner(I2, J2)
					if own == me {
						cache[key] = s.Blocks[me][[2]int{I2, J2}]
						return
					}
					ret := &core.F64Slice{V: make([]float64, b*b)}
					rt.Call(t, objs[own], "getBlock",
						[]core.Arg{&core.I64{V: int64(I2)}, &core.I64{V: int64(J2)}}, ret)
					cache[key] = ret.V
				}
				for J := I + 1; J < s.NB; J++ {
					for K := I + 1; K < s.NB; K++ {
						if s.Owner(K, J) != me {
							continue
						}
						fetch(I, J, rowCache, J)
						fetch(K, I, colCache, K)
					}
				}
				for J := I + 1; J < s.NB; J++ {
					for K := I + 1; K < s.NB; K++ {
						if s.Owner(K, J) != me {
							continue
						}
						mulSub(s.Blocks[me][[2]int{K, J}], colCache[K], rowCache[J], b)
						t.Charge(machine.CatCPU, kernelCost(mulFlops(b), cfgT.FlopCost))
					}
				}
				bar.Arrive(t)
			}

			if me == 0 {
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
