package lu

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/apps/appstat"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/transport/live"
)

func small() Params { return Params{N: 64, B: 8, Procs: 4, Seed: 5} }

func TestGridShape(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 2: {1, 2}, 4: {2, 2}, 6: {2, 3}, 8: {2, 4}, 9: {3, 3}, 16: {4, 4}}
	for p, want := range cases {
		r, c := gridShape(p)
		if r != want[0] || c != want[1] {
			t.Errorf("gridShape(%d) = %d,%d want %v", p, r, c, want)
		}
	}
}

func TestOwnershipPartition(t *testing.T) {
	s := Build(small())
	total := 0
	for pc := range s.Blocks {
		for key := range s.Blocks[pc] {
			if s.Owner(key[0], key[1]) != pc {
				t.Fatalf("block %v stored on %d but owned by %d", key, pc, s.Owner(key[0], key[1]))
			}
			total++
		}
	}
	if total != s.NB*s.NB {
		t.Fatalf("%d blocks stored, want %d", total, s.NB*s.NB)
	}
}

func TestAtAccessor(t *testing.T) {
	s := Build(small())
	// Diagonal dominance must be visible through At.
	for i := 0; i < s.P.N; i += 7 {
		if s.At(i, i) < float64(s.P.N)-1 {
			t.Fatalf("diagonal (%d,%d) = %v not dominant", i, i, s.At(i, i))
		}
	}
}

func TestSerialFactorizationReconstructs(t *testing.T) {
	orig := Build(small())
	fact := orig.Clone()
	RunSerial(fact)
	if err := ReconstructError(fact, orig, 16); err > 1e-8 {
		t.Fatalf("serial reconstruction error %g", err)
	}
}

func TestSerialReconstructProperty(t *testing.T) {
	f := func(seed int64) bool {
		p := Params{N: 32, B: 4, Procs: 4, Seed: seed}
		orig := Build(p)
		fact := orig.Clone()
		RunSerial(fact)
		return ReconstructError(fact, orig, 8) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitCMatchesSerial(t *testing.T) {
	orig := Build(small())
	serial := orig.Clone()
	RunSerial(serial)
	dist := orig.Clone()
	res, err := RunSplitC(machine.New(machine.SP1997(), dist.P.Procs), dist)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Checksum-serial.Checksum()) > 1e-9*math.Abs(serial.Checksum()) {
		t.Fatalf("split-c checksum %v vs serial %v", res.Checksum, serial.Checksum())
	}
	if e := ReconstructError(dist, orig, 16); e > 1e-8 {
		t.Fatalf("split-c reconstruction error %g", e)
	}
}

func TestCCXXMatchesSerial(t *testing.T) {
	orig := Build(small())
	serial := orig.Clone()
	RunSerial(serial)
	dist := orig.Clone()
	res, err := RunCCXX(machine.New(machine.SP1997(), dist.P.Procs), dist, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Checksum-serial.Checksum()) > 1e-9*math.Abs(serial.Checksum()) {
		t.Fatalf("cc++ checksum %v vs serial %v", res.Checksum, serial.Checksum())
	}
	if e := ReconstructError(dist, orig, 16); e > 1e-8 {
		t.Fatalf("cc++ reconstruction error %g", e)
	}
}

func TestCCXXSlowerWithinBand(t *testing.T) {
	// Paper: cc-lu is ~3.6x slower than sc-lu.
	orig := Build(small())
	sc, err := RunSplitC(machine.New(machine.SP1997(), orig.P.Procs), orig.Clone())
	if err != nil {
		t.Fatal(err)
	}
	cc, err := RunCCXX(machine.New(machine.SP1997(), orig.P.Procs), orig.Clone(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := cc.Ratio(sc)
	if ratio < 1.0 {
		t.Fatalf("cc-lu faster than sc-lu: %.2f", ratio)
	}
	if ratio > 10 {
		t.Fatalf("cc-lu/sc-lu ratio %.2f implausible", ratio)
	}
}

func TestSyncOverheadSignificantInCCLU(t *testing.T) {
	// Paper: intense synchronization is ~32% of cc-lu's gap; verify thread
	// sync is a visible component of the CC++ run.
	orig := Build(small())
	cc, err := RunCCXX(machine.New(machine.SP1997(), orig.P.Procs), orig.Clone(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f := cc.Fraction(machine.CatThreadSync); f <= 0 {
		t.Fatalf("thread-sync fraction %v, want > 0", f)
	}
	if cc.Busy.Counters[machine.CntSyncOp] == 0 {
		t.Fatal("no sync ops counted")
	}
}

func TestDeterministicElapsed(t *testing.T) {
	run := func() int64 {
		s := Build(small())
		res, err := RunSplitC(machine.New(machine.SP1997(), s.P.Procs), s)
		if err != nil {
			t.Fatal(err)
		}
		return int64(res.Elapsed)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

// TestLiveMatchesSerial runs both languages on real goroutines (the live
// backend) and matches the serial factorization, by checksum and by
// reconstructing the original matrix.
func TestLiveMatchesSerial(t *testing.T) {
	langs := []struct {
		name string
		run  func(*machine.Machine, *State) (*appstat.Result, error)
	}{
		{"split-c", RunSplitC},
		{"cc++", func(m *machine.Machine, s *State) (*appstat.Result, error) {
			return RunCCXX(m, s, core.Options{})
		}},
	}
	orig := Build(small())
	serial := orig.Clone()
	RunSerial(serial)
	for _, lang := range langs {
		dist := orig.Clone()
		m := machine.NewWithBackend(machine.SP1997(), orig.P.Procs, live.New(orig.P.Procs, live.Options{Watchdog: 20 * time.Second}))
		res, err := lang.run(m, dist)
		if err != nil {
			t.Fatalf("%s: %v", lang.name, err)
		}
		if math.Abs(res.Checksum-serial.Checksum()) > 1e-9*math.Abs(serial.Checksum()) {
			t.Errorf("%s on live: checksum %v, serial %v", lang.name, res.Checksum, serial.Checksum())
		}
		if e := ReconstructError(dist, orig, 16); e > 1e-8 {
			t.Errorf("%s on live: reconstruction error %g", lang.name, e)
		}
	}
}
