package splitc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/machine"
)

func TestSpreadArrayLayout(t *testing.T) {
	const procs, n = 4, 10
	s := NewSpreadF64(New(machine.New(machine.SP1997(), procs)), n)
	if s.Len() != n {
		t.Fatalf("len = %d", s.Len())
	}
	// Cyclic: element i on processor i%procs, and each element has a
	// distinct storage slot.
	seen := make(map[GPF]bool)
	for i := 0; i < n; i++ {
		gp := s.Index(i)
		if gp.PC != i%procs {
			t.Fatalf("element %d on %d", i, gp.PC)
		}
		if seen[gp] {
			t.Fatalf("element %d aliases another", i)
		}
		seen[gp] = true
	}
}

func TestSpreadArrayRoundTrip(t *testing.T) {
	const procs, n = 4, 17
	w := New(machine.New(machine.SP1997(), procs))
	s := NewSpreadF64(w, n)
	err := w.Run(func(p *Proc) {
		// Each processor writes its right neighbour's elements via puts, so
		// every element has exactly one (remote) writer.
		for i := 0; i < n; i++ {
			if s.Owner(i) == (p.MyPC()+1)%procs {
				p.Put(s.Index(i), float64(i)*2)
			}
		}
		p.Sync()
		p.Barrier()
		// Then everyone verifies every element through reads.
		for i := 0; i < n; i++ {
			if got := p.Read(s.Index(i)); got != float64(i)*2 {
				t.Errorf("proc %d: element %d = %v, want %v", p.MyPC(), i, got, float64(i)*2)
			}
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceSum(t *testing.T) {
	const procs = 4
	w := New(machine.New(machine.SP1997(), procs))
	got := make([]float64, procs)
	err := w.Run(func(p *Proc) {
		got[p.MyPC()] = p.AllReduce(float64(p.MyPC()+1), OpSum)
	})
	if err != nil {
		t.Fatal(err)
	}
	for pc, v := range got {
		if v != 10 { // 1+2+3+4
			t.Errorf("proc %d got %v", pc, v)
		}
	}
}

func TestAllReduceMaxMin(t *testing.T) {
	const procs = 4
	vals := []float64{3, -7, 12, 0.5}
	w := New(machine.New(machine.SP1997(), procs))
	var gotMax, gotMin [procs]float64
	err := w.Run(func(p *Proc) {
		gotMax[p.MyPC()] = p.AllReduce(vals[p.MyPC()], OpMax)
		gotMin[p.MyPC()] = p.AllReduce(vals[p.MyPC()], OpMin)
	})
	if err != nil {
		t.Fatal(err)
	}
	for pc := 0; pc < procs; pc++ {
		if gotMax[pc] != 12 || gotMin[pc] != -7 {
			t.Errorf("proc %d: max %v min %v", pc, gotMax[pc], gotMin[pc])
		}
	}
}

func TestAllReduceRepeated(t *testing.T) {
	const procs, rounds = 3, 5
	w := New(machine.New(machine.SP1997(), procs))
	sums := make([][]float64, procs)
	err := w.Run(func(p *Proc) {
		for r := 0; r < rounds; r++ {
			s := p.AllReduce(float64(r*10+p.MyPC()), OpSum)
			sums[p.MyPC()] = append(sums[p.MyPC()], s)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		want := float64(r*10*procs + 0 + 1 + 2)
		for pc := 0; pc < procs; pc++ {
			if sums[pc][r] != want {
				t.Errorf("round %d proc %d: %v want %v", r, pc, sums[pc][r], want)
			}
		}
	}
}

func TestAllBcast(t *testing.T) {
	const procs = 4
	w := New(machine.New(machine.SP1997(), procs))
	var got [procs]float64
	err := w.Run(func(p *Proc) {
		got[p.MyPC()] = p.AllBcast(2, 6.25)
	})
	if err != nil {
		t.Fatal(err)
	}
	for pc, v := range got {
		if v != 6.25 {
			t.Errorf("proc %d got %v", pc, v)
		}
	}
}

// Property: AllReduce(sum) equals the serial sum for random contributions.
func TestAllReduceSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const procs = 4
		vals := make([]float64, procs)
		want := 0.0
		for i := range vals {
			vals[i] = rng.NormFloat64()
			want += vals[i]
		}
		w := New(machine.New(machine.SP1997(), procs))
		var got [procs]float64
		if err := w.Run(func(p *Proc) {
			got[p.MyPC()] = p.AllReduce(vals[p.MyPC()], OpSum)
		}); err != nil {
			return false
		}
		for _, v := range got {
			if diff := v - want; diff > 1e-12 || diff < -1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
