package em3d

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

// small returns a quick test configuration.
func small(remotePct int) Params {
	return Params{GraphNodes: 80, Degree: 5, Procs: 4, RemotePct: remotePct, Iters: 3, Seed: 7}
}

func TestGraphBuildInvariants(t *testing.T) {
	g := Build(small(40))
	if g.PerProcNodes != 10 {
		t.Fatalf("per-proc nodes = %d", g.PerProcNodes)
	}
	for pc := 0; pc < 4; pc++ {
		for i := 0; i < g.PerProcNodes; i++ {
			if len(g.EDeps[pc][i]) != 5 || len(g.HDeps[pc][i]) != 5 {
				t.Fatalf("node (%d,%d) degree wrong", pc, i)
			}
		}
	}
	if g.TotalEdges() != 80*5 {
		t.Fatalf("total edges = %d", g.TotalEdges())
	}
}

func TestRemotePctZeroAndHundred(t *testing.T) {
	g0 := Build(small(0))
	for pc := range g0.EDeps {
		for i := range g0.EDeps[pc] {
			for _, e := range g0.EDeps[pc][i] {
				if e.from.pc != pc {
					t.Fatal("remote edge in 0% graph")
				}
			}
		}
	}
	g100 := Build(small(100))
	for pc := range g100.EDeps {
		for i := range g100.EDeps[pc] {
			for _, e := range g100.EDeps[pc][i] {
				if e.from.pc == pc {
					t.Fatal("local edge in 100% graph")
				}
			}
		}
	}
}

func TestGhostPlanCoversAllRemoteRefs(t *testing.T) {
	g := Build(small(70))
	plan := buildGhostPlan(4, g.EDeps)
	for pc := 0; pc < 4; pc++ {
		for i := range g.EDeps[pc] {
			for _, e := range g.EDeps[pc][i] {
				if e.from.pc == pc {
					continue
				}
				if _, ok := plan.slot[pc][e.from]; !ok {
					t.Fatalf("remote ref %v not in proc %d ghost plan", e.from, pc)
				}
			}
		}
	}
	// Export lists must mirror import regions exactly.
	for dst := 0; dst < 4; dst++ {
		for src := 0; src < 4; src++ {
			if len(plan.exports[src][dst]) != plan.importLen[dst][src] {
				t.Fatalf("export/import mismatch %d->%d", src, dst)
			}
		}
		total := 0
		for src := 0; src < 4; src++ {
			total += plan.importLen[dst][src]
		}
		if total != plan.ghostCount(dst) {
			t.Fatalf("import regions don't cover ghost array on %d", dst)
		}
	}
}

// runAll runs serial plus all six distributed versions on identical inputs
// and returns the checksums keyed by name.
func runAll(t *testing.T, p Params) map[string]float64 {
	t.Helper()
	cfg := machine.SP1997()
	base := Build(p)
	out := make(map[string]float64)

	serial := base.Clone()
	RunSerial(serial)
	out["serial"] = serial.Checksum()

	for _, v := range Variants() {
		g := base.Clone()
		res, err := RunSplitC(machine.New(cfg, p.Procs), g, v)
		if err != nil {
			t.Fatalf("split-c %s: %v", v, err)
		}
		out["split-c/"+string(v)] = res.Checksum

		g = base.Clone()
		res2, err := RunCCXX(machine.New(cfg, p.Procs), g, v, core.Options{})
		if err != nil {
			t.Fatalf("cc++ %s: %v", v, err)
		}
		out["cc++/"+string(v)] = res2.Checksum
	}
	return out
}

func TestAllVersionsMatchSerial(t *testing.T) {
	sums := runAll(t, small(40))
	want := sums["serial"]
	if math.IsNaN(want) || want == 0 {
		t.Fatalf("degenerate serial checksum %v", want)
	}
	for name, got := range sums {
		if math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Errorf("%s checksum %v != serial %v", name, got, want)
		}
	}
}

func TestAllVersionsMatchSerialFullRemote(t *testing.T) {
	sums := runAll(t, small(100))
	want := sums["serial"]
	for name, got := range sums {
		if math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Errorf("%s checksum %v != serial %v", name, got, want)
		}
	}
}

func TestOptimizationOrdering(t *testing.T) {
	// At 100% remote edges, ghost must beat base and bulk must beat ghost,
	// in both languages (the paper's headline EM3D result).
	cfg := machine.SP1997()
	p := small(100)
	base := Build(p)

	elapsed := make(map[string]float64)
	for _, v := range Variants() {
		g := base.Clone()
		res, err := RunSplitC(machine.New(cfg, p.Procs), g, v)
		if err != nil {
			t.Fatal(err)
		}
		elapsed["sc/"+string(v)] = float64(res.Elapsed)

		g = base.Clone()
		res2, err := RunCCXX(machine.New(cfg, p.Procs), g, v, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		elapsed["cc/"+string(v)] = float64(res2.Elapsed)
	}
	for _, lang := range []string{"sc", "cc"} {
		if !(elapsed[lang+"/ghost"] < elapsed[lang+"/base"]) {
			t.Errorf("%s: ghost (%v) not faster than base (%v)", lang, elapsed[lang+"/ghost"], elapsed[lang+"/base"])
		}
		if !(elapsed[lang+"/bulk"] < elapsed[lang+"/ghost"]) {
			t.Errorf("%s: bulk (%v) not faster than ghost (%v)", lang, elapsed[lang+"/bulk"], elapsed[lang+"/ghost"])
		}
	}
}

func TestCCXXSlowerButCompetitive(t *testing.T) {
	cfg := machine.SP1997()
	p := small(100)
	base := Build(p)
	for _, v := range Variants() {
		g := base.Clone()
		sc, err := RunSplitC(machine.New(cfg, p.Procs), g, v)
		if err != nil {
			t.Fatal(err)
		}
		g = base.Clone()
		cc, err := RunCCXX(machine.New(cfg, p.Procs), g, v, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ratio := cc.Ratio(sc)
		if ratio < 1.0 {
			t.Errorf("%s: cc++ faster than split-c (%.2f)", v, ratio)
		}
		if ratio > 8 {
			t.Errorf("%s: cc++/split-c ratio %.2f implausibly large", v, ratio)
		}
	}
}

func TestDeterministicElapsed(t *testing.T) {
	cfg := machine.SP1997()
	p := small(70)
	run := func() int64 {
		g := Build(p)
		res, err := RunSplitC(machine.New(cfg, p.Procs), g, Ghost)
		if err != nil {
			t.Fatal(err)
		}
		return int64(res.Elapsed)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Build(small(40))
	c := g.Clone()
	g.EVals[0][0] = 999
	if c.EVals[0][0] == 999 {
		t.Fatal("clone shares value storage")
	}
}

// Property: for random small graphs, Split-C ghost matches serial exactly.
func TestGhostMatchesSerialProperty(t *testing.T) {
	f := func(seed int64, pctRaw uint8) bool {
		p := Params{GraphNodes: 48, Degree: 3, Procs: 4,
			RemotePct: int(pctRaw) % 101, Iters: 2, Seed: seed}
		base := Build(p)
		serial := base.Clone()
		RunSerial(serial)
		g := base.Clone()
		res, err := RunSplitC(machine.New(machine.SP1997(), p.Procs), g, Ghost)
		if err != nil {
			return false
		}
		return math.Abs(res.Checksum-serial.Checksum()) <= 1e-9*math.Abs(serial.Checksum())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestLiveMatchesSerial runs every variant of both languages on real
// goroutines (the live backend) at 40 % and 100 % remote edges and matches
// the serial reference.
func TestLiveMatchesSerial(t *testing.T) {
	langs := []struct {
		name string
		run  func(*machine.Machine, *Graph, Variant) (*appstat.Result, error)
	}{
		{"split-c", RunSplitC},
		{"cc++", func(m *machine.Machine, g *Graph, v Variant) (*appstat.Result, error) {
			return RunCCXX(m, g, v, core.Options{})
		}},
	}
	for _, pct := range []int{40, 100} {
		p := small(pct)
		base := Build(p)
		serial := base.Clone()
		RunSerial(serial)
		want := serial.Checksum()
		for _, lang := range langs {
			for _, v := range Variants() {
				m := machine.NewWithBackend(machine.SP1997(), p.Procs, live.New(p.Procs, live.Options{Watchdog: 20 * time.Second}))
				res, err := lang.run(m, base.Clone(), v)
				if err != nil {
					t.Fatalf("%d%% remote, %s/%s: %v", pct, lang.name, v, err)
				}
				if math.Abs(res.Checksum-want) > 1e-9*math.Abs(want) {
					t.Errorf("%d%% remote, %s/%s on live: checksum %v, serial %v", pct, lang.name, v, res.Checksum, want)
				}
			}
		}
	}
}
