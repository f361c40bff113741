package lu

import (
	"repro/internal/apps/appstat"
	"repro/internal/machine"
	"repro/internal/splitc"
)

// RunSplitC executes the Split-C version of blocked LU (sc-lu): one-way bulk
// stores broadcast each pivot block, and all perimeter blocks needed by a
// sub-step are prefetched with split-phase bulk gets before updating. It runs
// on machine m, one node per processor.
func RunSplitC(m *machine.Machine, s *State) (*appstat.Result, error) {
	w := splitc.New(m)
	b := s.P.B

	// Per-processor landing area for broadcast pivot blocks, addressable by
	// the owner for one-way stores.
	pivotBuf := make([][]float64, s.P.Procs)
	for pc := range pivotBuf {
		pivotBuf[pc] = make([]float64, b*b)
	}
	pivSeg := w.Share(pivotBuf)
	// Every block is a segment of its own, held by its owner.
	blockSeg := make(map[[2]int]splitc.Seg)
	for I := 0; I < s.NB; I++ {
		for J := 0; J < s.NB; J++ {
			parts := make([][]float64, s.P.Procs)
			parts[s.Owner(I, J)] = s.Block(I, J)
			blockSeg[[2]int{I, J}] = w.Share(parts)
		}
	}

	res := &appstat.Result{
		Lang:    "split-c",
		Variant: "lu",
		Work:    int64(s.NB) * int64(s.NB) * int64(s.NB) / 3,
	}

	err := w.Run(func(p *splitc.Proc) {
		me := p.MyPC()
		cfgT := p.T.Cfg()
		expectStores := 0

		p.Barrier()
		if me == 0 {
			res.Start(m, p.T.Now())
		}
		p.Barrier()

		for I := 0; I < s.NB; I++ {
			// Sub-step 1: factor the pivot block; broadcast it.
			if s.Owner(I, I) == me {
				piv := s.Blocks[me][[2]int{I, I}]
				factorBlock(piv, b)
				p.T.Charge(machine.CatCPU, kernelCost(factorFlops(b), cfgT.FlopCost))
				for q := 0; q < s.P.Procs; q++ {
					p.BulkStore(splitc.GVF{PC: q, Seg: pivSeg, Len: b * b}, piv)
				}
			}
			expectStores += b * b
			p.WaitStores(expectStores)
			piv := pivotBuf[me]

			// Sub-step 2: owners of pivot-row and pivot-column blocks update
			// them using the pivot block.
			for J := I + 1; J < s.NB; J++ {
				if s.Owner(I, J) == me {
					solveRow(piv, s.Blocks[me][[2]int{I, J}], b)
					p.T.Charge(machine.CatCPU, kernelCost(solveFlops(b), cfgT.FlopCost))
				}
			}
			for K := I + 1; K < s.NB; K++ {
				if s.Owner(K, I) == me {
					solveCol(piv, s.Blocks[me][[2]int{K, I}], b)
					p.T.Charge(machine.CatCPU, kernelCost(solveFlops(b), cfgT.FlopCost))
				}
			}
			p.Barrier()

			// Sub-step 3: prefetch every remote perimeter block this
			// processor's interior updates need, then update.
			rowCache := make(map[int][]float64)
			colCache := make(map[int][]float64)
			for J := I + 1; J < s.NB; J++ {
				for K := I + 1; K < s.NB; K++ {
					if s.Owner(K, J) != me {
						continue
					}
					if _, ok := rowCache[J]; !ok {
						rowCache[J] = fetchBlock(p, s, blockSeg, I, J)
					}
					if _, ok := colCache[K]; !ok {
						colCache[K] = fetchBlock(p, s, blockSeg, K, I)
					}
				}
			}
			p.Sync()
			for J := I + 1; J < s.NB; J++ {
				for K := I + 1; K < s.NB; K++ {
					if s.Owner(K, J) != me {
						continue
					}
					mulSub(s.Blocks[me][[2]int{K, J}], colCache[K], rowCache[J], b)
					p.T.Charge(machine.CatCPU, kernelCost(mulFlops(b), cfgT.FlopCost))
				}
			}
			p.Barrier()
		}

		if me == 0 {
			res.Stop(p.T.Now())
			res.Checksum = s.Checksum()
		}
	})
	return res, err
}

// fetchBlock returns block (I,J): the local storage when owned here, or a
// split-phase bulk get of its segment into a fresh buffer (completed by the
// caller's Sync).
func fetchBlock(p *splitc.Proc, s *State, segs map[[2]int]splitc.Seg, I, J int) []float64 {
	own := s.Owner(I, J)
	key := [2]int{I, J}
	if own == p.MyPC() {
		return s.Blocks[own][key]
	}
	buf := make([]float64, s.P.B*s.P.B)
	p.BulkGet(buf, splitc.GVF{PC: own, Seg: segs[key], Len: len(buf)})
	return buf
}
