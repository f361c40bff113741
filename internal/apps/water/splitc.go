package water

import (
	"time"

	"repro/internal/apps/appstat"
	"repro/internal/machine"
	"repro/internal/splitc"
)

// Variant selects the program version, per §5.
type Variant string

// The two Water program versions of the paper.
const (
	Atomic   Variant = "atomic"
	Prefetch Variant = "prefetch"
)

// Variants lists the program versions in the paper's order.
func Variants() []Variant { return []Variant{Atomic, Prefetch} }

// RunSplitC executes the Split-C version of Water on machine m, one node per
// processor, mutating s and returning the measurement.
func RunSplitC(m *machine.Machine, s *State, variant Variant) (*appstat.Result, error) {
	w := splitc.New(m)
	posSeg, frcSeg := w.Share(s.Pos), w.Share(s.Frc)
	potParts := make([][]float64, s.P.Procs) // processor 0's potential, the reduction's target
	potParts[0] = s.Pot[:1]
	potSeg := w.Share(potParts)

	res := &appstat.Result{
		Lang:    "split-c",
		Variant: string(variant),
		Work:    int64(s.P.Steps) * int64(s.P.N) * int64(s.P.N-1) / 2,
	}

	err := w.Run(func(p *splitc.Proc) {
		me := p.MyPC()
		n := s.P.N
		base := me * s.PerProc
		// Mirror of peer position blocks for the prefetch variant.
		mirror := make([][]float64, s.P.Procs)
		for q := range mirror {
			if q != me {
				mirror[q] = make([]float64, s.PerProc*3)
			}
		}

		p.Barrier()
		if me == 0 {
			res.Start(m, p.T.Now())
		}
		p.Barrier()

		for step := 0; step < s.P.Steps; step++ {
			// Zero local forces.
			for k := range s.Frc[me] {
				s.Frc[me][k] = 0
			}
			p.Barrier()

			if variant == Prefetch {
				// Selective prefetching: bundle-fetch the position blocks
				// this processor will read (owners of molecules j > base).
				for q := me + 1; q < s.P.Procs; q++ {
					p.BulkGet(mirror[q], splitc.GVF{PC: q, Seg: posSeg, Len: len(mirror[q])})
				}
				p.Sync()
			}

			pot := 0.0
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
						// Atomic reads of the three coordinates.
						xj = p.Read(splitc.GPF{PC: pj, Seg: posSeg, Off: lj * 3})
						yj = p.Read(splitc.GPF{PC: pj, Seg: posSeg, Off: lj*3 + 1})
						zj = p.Read(splitc.GPF{PC: pj, Seg: posSeg, Off: lj*3 + 2})
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
						// Atomic read-modify-writes push the reaction force
						// to the owner (split-phase, completed below).
						p.AtomicAdd(splitc.GPF{PC: pj, Seg: frcSeg, Off: lj * 3}, -fx)
						p.AtomicAdd(splitc.GPF{PC: pj, Seg: frcSeg, Off: lj*3 + 1}, -fy)
						p.AtomicAdd(splitc.GPF{PC: pj, Seg: frcSeg, Off: lj*3 + 2}, -fz)
					}
					pairs++
				}
				p.T.Charge(machine.CatCPU, time.Duration(flopsPerPair*pairs)*p.T.Cfg().FlopCost)
			}
			p.Sync() // all reaction forces delivered
			s.Pot[me] += pot
			p.Barrier()

			integrateProc(s, me)
			p.T.Charge(machine.CatCPU, integrateCost(s, p.T.Cfg().FlopCost))
			p.Barrier()
		}

		// Reduce the potential onto processor 0.
		if me != 0 {
			p.AtomicAdd(splitc.GPF{PC: 0, Seg: potSeg}, s.Pot[me])
			p.Sync()
		}
		p.Barrier()

		if me == 0 {
			s.Energy = s.Pot[0]
			res.Stop(p.T.Now())
			res.Checksum = s.Checksum()
		}
	})
	return res, err
}
