// Package lu reproduces the paper's Blocked LU Decomposition application
// (SPLASH; Singh, Weber, Gupta 1992): LU factorization of a dense matrix
// divided into B×B blocks distributed across processors. Every step factors
// the pivot block, propagates it to the processors holding the pivot row and
// column, and updates the interior, fetching the freshly modified perimeter
// blocks first.
//
// The Split-C version transfers pivot blocks with one-way bulk stores and
// prefetches perimeter blocks with split-phase bulk gets; the CC++ version
// replaces the stores and prefetches with RMIs, exactly as §5 describes.
// Factorization is unpivoted, so inputs are made diagonally dominant.
package lu

import (
	"math/rand"
	"time"
)

// Params configures an LU run.
type Params struct {
	// N is the matrix dimension (512 in the paper).
	N int
	// B is the block size (16 in the paper).
	B int
	// Procs is the number of processors, arranged in a 2D grid
	// (4 = 2×2 in the paper).
	Procs int
	// Seed makes the input matrix deterministic.
	Seed int64
}

// State is the distributed blocked matrix.
type State struct {
	P Params
	// NB is the number of blocks per dimension.
	NB int
	// GridR, GridC are the processor-grid dimensions (GridR*GridC = Procs).
	GridR, GridC int
	// Blocks[p] maps (I,J) to the owned B*B block (row-major).
	Blocks []map[[2]int][]float64
}

// Build creates a diagonally dominant random matrix in blocked, distributed
// form.
func Build(p Params) *State {
	if p.N%p.B != 0 {
		panic("lu: N must be a multiple of B")
	}
	gr, gc := gridShape(p.Procs)
	s := &State{P: p, NB: p.N / p.B, GridR: gr, GridC: gc}
	for pc := 0; pc < p.Procs; pc++ {
		s.Blocks = append(s.Blocks, make(map[[2]int][]float64))
	}
	rng := rand.New(rand.NewSource(p.Seed))
	for i := 0; i < p.N; i++ {
		for j := 0; j < p.N; j++ {
			v := rng.Float64() - 0.5
			if i == j {
				v += float64(p.N) // diagonal dominance
			}
			s.set(i, j, v)
		}
	}
	return s
}

// gridShape returns the most square processor grid.
func gridShape(procs int) (r, c int) {
	r = 1
	for d := 1; d*d <= procs; d++ {
		if procs%d == 0 {
			r = d
		}
	}
	return r, procs / r
}

// Owner returns the processor owning block (I,J) under the 2D cyclic layout.
func (s *State) Owner(I, J int) int { return (I%s.GridR)*s.GridC + J%s.GridC }

// Block returns the block (I,J) from its owner's store.
func (s *State) Block(I, J int) []float64 { return s.Blocks[s.Owner(I, J)][[2]int{I, J}] }

func (s *State) set(i, j int, v float64) {
	I, J := i/s.P.B, j/s.P.B
	own := s.Owner(I, J)
	key := [2]int{I, J}
	blk := s.Blocks[own][key]
	if blk == nil {
		blk = make([]float64, s.P.B*s.P.B)
		s.Blocks[own][key] = blk
	}
	blk[(i%s.P.B)*s.P.B+(j%s.P.B)] = v
}

// At returns element (i,j) of the distributed matrix.
func (s *State) At(i, j int) float64 {
	return s.Block(i/s.P.B, j/s.P.B)[(i%s.P.B)*s.P.B+(j%s.P.B)]
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	ns := &State{P: s.P, NB: s.NB, GridR: s.GridR, GridC: s.GridC}
	for pc := range s.Blocks {
		m := make(map[[2]int][]float64, len(s.Blocks[pc]))
		for k, v := range s.Blocks[pc] {
			m[k] = append([]float64(nil), v...)
		}
		ns.Blocks = append(ns.Blocks, m)
	}
	return ns
}

// Checksum sums all matrix elements.
func (s *State) Checksum() float64 {
	sum := 0.0
	for pc := range s.Blocks {
		for _, blk := range s.Blocks[pc] {
			for _, v := range blk {
				sum += v
			}
		}
	}
	return sum
}

// --- block kernels (shared by all versions) ---------------------------------

// factorBlock performs the in-place unpivoted LU factorization of a diagonal
// block (unit lower-triangular L below, U on and above the diagonal).
func factorBlock(a []float64, b int) {
	for k := 0; k < b; k++ {
		pivot := a[k*b+k]
		for i := k + 1; i < b; i++ {
			a[i*b+k] /= pivot
			lik := a[i*b+k]
			for j := k + 1; j < b; j++ {
				a[i*b+j] -= lik * a[k*b+j]
			}
		}
	}
}

// solveRow applies L(pivot)^-1 to a pivot-row block: A[I,J] becomes U.
func solveRow(pivot, blk []float64, b int) {
	for k := 0; k < b; k++ {
		for i := k + 1; i < b; i++ {
			lik := pivot[i*b+k]
			for j := 0; j < b; j++ {
				blk[i*b+j] -= lik * blk[k*b+j]
			}
		}
	}
}

// solveCol applies U(pivot)^-1 from the right to a pivot-column block:
// A[K,I] becomes L.
func solveCol(pivot, blk []float64, b int) {
	for k := 0; k < b; k++ {
		ukk := pivot[k*b+k]
		for i := 0; i < b; i++ {
			blk[i*b+k] /= ukk
			lik := blk[i*b+k]
			for j := k + 1; j < b; j++ {
				blk[i*b+j] -= lik * pivot[k*b+j]
			}
		}
	}
}

// mulSub computes dst -= a × bm for B×B blocks.
func mulSub(dst, a, bm []float64, b int) {
	for i := 0; i < b; i++ {
		for k := 0; k < b; k++ {
			aik := a[i*b+k]
			if aik == 0 {
				continue
			}
			row := bm[k*b : k*b+b]
			drow := dst[i*b : i*b+b]
			for j := 0; j < b; j++ {
				drow[j] -= aik * row[j]
			}
		}
	}
}

// Flop charges for the kernels.
func factorFlops(b int) int { return 2 * b * b * b / 3 }
func solveFlops(b int) int  { return b * b * b }
func mulFlops(b int) int    { return 2 * b * b * b }

func kernelCost(flops int, flopCost time.Duration) time.Duration {
	return time.Duration(flops) * flopCost
}

// RunSerial factors the matrix in place with the same blocked algorithm the
// distributed versions use, as the correctness reference.
func RunSerial(s *State) {
	b := s.P.B
	for I := 0; I < s.NB; I++ {
		piv := s.Block(I, I)
		factorBlock(piv, b)
		for J := I + 1; J < s.NB; J++ {
			solveRow(piv, s.Block(I, J), b)
		}
		for K := I + 1; K < s.NB; K++ {
			solveCol(piv, s.Block(K, I), b)
		}
		for K := I + 1; K < s.NB; K++ {
			for J := I + 1; J < s.NB; J++ {
				mulSub(s.Block(K, J), s.Block(K, I), s.Block(I, J), b)
			}
		}
	}
}

// ReconstructError returns max |(L·U)[i,j] - orig[i,j]| over a sample of
// rows, verifying the factorization against the original matrix.
func ReconstructError(fact, orig *State, sampleRows int) float64 {
	n := fact.P.N
	if sampleRows > n {
		sampleRows = n
	}
	maxErr := 0.0
	for si := 0; si < sampleRows; si++ {
		i := si * (n / sampleRows)
		for j := 0; j < n; j++ {
			// (L·U)[i,j] = sum_k L[i,k]*U[k,j], L unit lower.
			sum := 0.0
			kmax := i
			if j < i {
				kmax = j
			}
			for k := 0; k <= kmax; k++ {
				var l, u float64
				if k == i {
					l = 1
				} else {
					l = fact.At(i, k)
				}
				u = fact.At(k, j)
				sum += l * u
			}
			diff := sum - orig.At(i, j)
			if diff < 0 {
				diff = -diff
			}
			if diff > maxErr {
				maxErr = diff
			}
		}
	}
	return maxErr
}
