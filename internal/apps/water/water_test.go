package water

import (
	"math"
	"testing"
	"time"

	"repro/internal/apps/appstat"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/transport/live"
)

func small() Params { return Params{N: 32, Procs: 4, Steps: 2, Seed: 11} }

func relErr(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

func TestBuildDeterministic(t *testing.T) {
	a, b := Build(small()), Build(small())
	for pc := range a.Pos {
		for k := range a.Pos[pc] {
			if a.Pos[pc][k] != b.Pos[pc][k] {
				t.Fatal("nondeterministic build")
			}
		}
	}
}

func TestOwnerLocal(t *testing.T) {
	s := Build(small())
	for g := 0; g < s.P.N; g++ {
		pc, l := s.Owner(g), s.Local(g)
		if pc*s.PerProc+l != g {
			t.Fatalf("owner/local broken for %d", g)
		}
		if pc < 0 || pc >= s.P.Procs || l < 0 || l >= s.PerProc {
			t.Fatalf("out of range for %d", g)
		}
	}
}

func TestSerialEnergyNonzeroAndFinite(t *testing.T) {
	s := Build(small())
	RunSerial(s)
	if s.Energy == 0 || math.IsNaN(s.Energy) || math.IsInf(s.Energy, 0) {
		t.Fatalf("energy = %v", s.Energy)
	}
}

func TestNewtonThirdLawSerial(t *testing.T) {
	// With all pair forces equal-and-opposite, the net force after one force
	// phase must be ~zero. Run a single step and inspect forces before they
	// are consumed: recompute manually.
	s := Build(small())
	RunSerial(s) // one full run; forces of last step remain in s.Frc
	var net [3]float64
	for pc := range s.Frc {
		for i := 0; i < s.PerProc; i++ {
			for c := 0; c < 3; c++ {
				net[c] += s.Frc[pc][i*3+c]
			}
		}
	}
	for c, v := range net {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("net force component %d = %v", c, v)
		}
	}
}

func runAll(t *testing.T, p Params) map[string]float64 {
	t.Helper()
	cfg := machine.SP1997()
	base := Build(p)
	out := make(map[string]float64)

	serial := base.Clone()
	RunSerial(serial)
	out["serial"] = serial.Checksum()

	for _, v := range Variants() {
		s := base.Clone()
		res, err := RunSplitC(machine.New(cfg, s.P.Procs), s, v)
		if err != nil {
			t.Fatalf("split-c %s: %v", v, err)
		}
		out["split-c/"+string(v)] = res.Checksum

		s = base.Clone()
		res2, err := RunCCXX(machine.New(cfg, s.P.Procs), s, v, core.Options{})
		if err != nil {
			t.Fatalf("cc++ %s: %v", v, err)
		}
		out["cc++/"+string(v)] = res2.Checksum
	}
	return out
}

func TestAllVersionsMatchSerial(t *testing.T) {
	sums := runAll(t, small())
	want := sums["serial"]
	for name, got := range sums {
		if relErr(got, want) > 1e-6 {
			t.Errorf("%s checksum %v vs serial %v (rel %g)", name, got, want, relErr(got, want))
		}
	}
}

func TestPrefetchFasterThanAtomic(t *testing.T) {
	cfg := machine.SP1997()
	base := Build(small())
	for _, lang := range []string{"split-c", "cc++"} {
		var atomicT, prefT float64
		for _, v := range Variants() {
			s := base.Clone()
			var elapsed float64
			if lang == "split-c" {
				res, err := RunSplitC(machine.New(cfg, s.P.Procs), s, v)
				if err != nil {
					t.Fatal(err)
				}
				elapsed = float64(res.Elapsed)
			} else {
				res, err := RunCCXX(machine.New(cfg, s.P.Procs), s, v, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				elapsed = float64(res.Elapsed)
			}
			if v == Atomic {
				atomicT = elapsed
			} else {
				prefT = elapsed
			}
		}
		if prefT >= atomicT {
			t.Errorf("%s: prefetch (%v) not faster than atomic (%v)", lang, prefT, atomicT)
		}
	}
}

func TestRemoteAccessReduction(t *testing.T) {
	// The paper: selective prefetching causes a ~10-fold reduction in remote
	// accesses. Count them.
	cfg := machine.SP1997()
	base := Build(small())
	counts := make(map[Variant]int64)
	for _, v := range Variants() {
		s := base.Clone()
		res, err := RunSplitC(machine.New(cfg, s.P.Procs), s, v)
		if err != nil {
			t.Fatal(err)
		}
		counts[v] = res.Busy.Counters[machine.CntRemoteRead]
	}
	if counts[Atomic] < 5*counts[Prefetch] {
		t.Fatalf("remote reads atomic=%d prefetch=%d: reduction below 5x", counts[Atomic], counts[Prefetch])
	}
}

func TestCCXXGapGrowsWithN(t *testing.T) {
	// Paper: the atomic-variant CC++/Split-C gap grows with molecule count
	// (2.6x at 64 -> 5.6x at 512), because remote accesses grow
	// quadratically and CC++'s per-access overhead is higher.
	cfg := machine.SP1997()
	gap := func(n int) float64 {
		p := Params{N: n, Procs: 4, Steps: 1, Seed: 11}
		base := Build(p)
		s := base.Clone()
		sc, err := RunSplitC(machine.New(cfg, s.P.Procs), s, Atomic)
		if err != nil {
			t.Fatal(err)
		}
		s = base.Clone()
		cc, err := RunCCXX(machine.New(cfg, s.P.Procs), s, Atomic, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return cc.Ratio(sc)
	}
	small, large := gap(16), gap(64)
	if small < 1.0 {
		t.Errorf("gap at N=16 is %.2f (<1)", small)
	}
	if large <= small*0.95 {
		t.Errorf("gap did not grow with N: %.2f (16) -> %.2f (64)", small, large)
	}
}

// TestLiveMatchesSerial runs both variants of both languages on real
// goroutines (the live backend) and matches the serial reference.
func TestLiveMatchesSerial(t *testing.T) {
	langs := []struct {
		name string
		run  func(*machine.Machine, *State, Variant) (*appstat.Result, error)
	}{
		{"split-c", RunSplitC},
		{"cc++", func(m *machine.Machine, s *State, v Variant) (*appstat.Result, error) {
			return RunCCXX(m, s, v, core.Options{})
		}},
	}
	base := Build(small())
	serial := base.Clone()
	RunSerial(serial)
	want := serial.Checksum()
	for _, lang := range langs {
		for _, v := range Variants() {
			m := machine.NewWithBackend(machine.SP1997(), base.P.Procs, live.New(base.P.Procs, live.Options{Watchdog: 20 * time.Second}))
			res, err := lang.run(m, base.Clone(), v)
			if err != nil {
				t.Fatalf("%s/%s: %v", lang.name, v, err)
			}
			if relErr(res.Checksum, want) > 1e-6 {
				t.Errorf("%s/%s on live: checksum %v, serial %v", lang.name, v, res.Checksum, want)
			}
		}
	}
}
