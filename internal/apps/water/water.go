// Package water reproduces the paper's Water application: the N-body
// molecular-dynamics code from the SPLASH benchmark suite (Singh, Weber,
// Gupta 1992), computing forces and energies of a system of water molecules
// with an O(N²) inter-molecular phase.
//
// Two program versions are implemented in both languages, per §5:
//
//   - atomic: remote molecule data is read with individual atomic reads and
//     force contributions are pushed back with atomic read-modify-writes;
//   - prefetch: the atomic read requests are replaced with selective
//     prefetching — each processor bundles and fetches the positions of the
//     remote molecules it needs from their owners before computing locally
//     (the force writes stay atomic).
//
// The physics is deliberately simplified to the communication-relevant
// skeleton (softened inverse-square pair interactions between molecule
// centres, a predictor/corrector-flavoured integration), because the paper's
// measurements are driven by the access pattern — three coordinate reads and
// three force accumulations per remote pair — not by the water potential.
package water

import (
	"math/rand"
	"time"
)

// Params configures a Water run.
type Params struct {
	// N is the number of molecules (64 and 512 in the paper).
	N int
	// Procs is the number of processors (4 in the paper).
	Procs int
	// Steps is the number of simulation steps.
	Steps int
	// Seed makes the initial configuration deterministic.
	Seed int64
}

// State is the distributed simulation state: molecules are distributed
// statically block-wise across processors (as in the SPLASH original), with
// per-processor slices so each simulated node owns its data.
type State struct {
	P Params
	// PerProc is molecules per processor.
	PerProc int
	// Pos, Vel, Frc hold 3 doubles per molecule: [proc][local*3+coord].
	Pos, Vel, Frc [][]float64
	// Pot[p] accumulates processor p's share of the potential energy;
	// Pot[0] additionally receives the global reduction.
	Pot []float64
	// Energy is the reduced total potential after a run.
	Energy float64
}

// Integration and interaction constants (stability, not physics).
const (
	softening = 0.1
	dtV       = 0.001
	dtP       = 0.01
)

// Flop charges per unit of work.
const (
	flopsPerPair     = 22
	flopsPerIntegate = 12
)

// Build creates the initial configuration: molecules on a jittered lattice.
func Build(p Params) *State {
	if p.N%p.Procs != 0 {
		panic("water: N must divide evenly across processors")
	}
	rng := rand.New(rand.NewSource(p.Seed))
	s := &State{P: p, PerProc: p.N / p.Procs, Pot: make([]float64, p.Procs)}
	side := 1
	for side*side*side < p.N {
		side++
	}
	g := 0
	for pc := 0; pc < p.Procs; pc++ {
		pos := make([]float64, s.PerProc*3)
		for i := 0; i < s.PerProc; i++ {
			x, y, z := g%side, (g/side)%side, g/(side*side)
			pos[i*3+0] = float64(x) + 0.2*rng.Float64()
			pos[i*3+1] = float64(y) + 0.2*rng.Float64()
			pos[i*3+2] = float64(z) + 0.2*rng.Float64()
			g++
		}
		s.Pos = append(s.Pos, pos)
		s.Vel = append(s.Vel, make([]float64, s.PerProc*3))
		s.Frc = append(s.Frc, make([]float64, s.PerProc*3))
	}
	return s
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	ns := &State{P: s.P, PerProc: s.PerProc, Pot: append([]float64(nil), s.Pot...), Energy: s.Energy}
	for pc := 0; pc < s.P.Procs; pc++ {
		ns.Pos = append(ns.Pos, append([]float64(nil), s.Pos[pc]...))
		ns.Vel = append(ns.Vel, append([]float64(nil), s.Vel[pc]...))
		ns.Frc = append(ns.Frc, append([]float64(nil), s.Frc[pc]...))
	}
	return ns
}

// Owner returns the processor owning global molecule g.
func (s *State) Owner(g int) int { return g / s.PerProc }

// Local returns g's index within its owner's block.
func (s *State) Local(g int) int { return g % s.PerProc }

// Checksum combines final energy and positions for cross-validation.
func (s *State) Checksum() float64 {
	sum := s.Energy
	for pc := range s.Pos {
		for _, v := range s.Pos[pc] {
			sum += v
		}
	}
	return sum
}

// pairForce computes the softened interaction between two points, returning
// the force components on the first point and the pair potential.
func pairForce(xi, yi, zi, xj, yj, zj float64) (fx, fy, fz, pot float64) {
	dx, dy, dz := xi-xj, yi-yj, zi-zj
	r2 := dx*dx + dy*dy + dz*dz + softening
	inv := 1 / r2
	f := inv * inv
	return f * dx, f * dy, f * dz, inv
}

// RunSerial executes the reference computation without simulation. The pair
// loop visits (i, j) with i < j in ascending global order, accumulating equal
// and opposite forces — the same arithmetic both distributed versions do.
func RunSerial(s *State) {
	n := s.P.N
	for step := 0; step < s.P.Steps; step++ {
		for pc := range s.Frc {
			for k := range s.Frc[pc] {
				s.Frc[pc][k] = 0
			}
		}
		pot := 0.0
		for i := 0; i < n; i++ {
			pi, li := s.Owner(i), s.Local(i)
			xi, yi, zi := s.Pos[pi][li*3], s.Pos[pi][li*3+1], s.Pos[pi][li*3+2]
			for j := i + 1; j < n; j++ {
				pj, lj := s.Owner(j), s.Local(j)
				fx, fy, fz, p := pairForce(xi, yi, zi, s.Pos[pj][lj*3], s.Pos[pj][lj*3+1], s.Pos[pj][lj*3+2])
				s.Frc[pi][li*3] += fx
				s.Frc[pi][li*3+1] += fy
				s.Frc[pi][li*3+2] += fz
				s.Frc[pj][lj*3] -= fx
				s.Frc[pj][lj*3+1] -= fy
				s.Frc[pj][lj*3+2] -= fz
				pot += p
			}
		}
		integrate(s)
		s.Energy += pot
	}
}

// integrate advances velocities and positions (corrector step), identically
// in all versions.
func integrate(s *State) {
	for pc := range s.Pos {
		for k := range s.Pos[pc] {
			s.Vel[pc][k] += dtV * s.Frc[pc][k]
			s.Pos[pc][k] += dtP * s.Vel[pc][k]
		}
	}
}

// integrateProc advances one processor's molecules.
func integrateProc(s *State, pc int) {
	for k := range s.Pos[pc] {
		s.Vel[pc][k] += dtV * s.Frc[pc][k]
		s.Pos[pc][k] += dtP * s.Vel[pc][k]
	}
}

// integrateCost is the CPU charge for one processor's integration.
func integrateCost(s *State, flopCost time.Duration) time.Duration {
	return time.Duration(flopsPerIntegate*s.PerProc) * flopCost
}
