package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
)

// TestMPLReferenceRTT pins IBM MPL's round trip as a price on Active
// Messages: two short messages, each paying MPL's per-side overhead at both
// ends and the wire once, 2·(2·MPLOverhead + WireLatency) exactly — the
// paper's 88 µs on the SP, and the same formula on a machine whose MPL and AM
// overheads both differ from the SP's — with two short messages sent and two
// handlers run per round trip.
func TestMPLReferenceRTT(t *testing.T) {
	other := machine.SP1997()
	other.SendOverhead, other.RecvOverhead = 2*time.Microsecond, 4*time.Microsecond
	other.MPLOverhead, other.WireLatency = 30*time.Microsecond, 10*time.Microsecond
	for _, tc := range []struct {
		name string
		cfg  machine.Config
		want time.Duration
	}{
		{"SP1997", machine.SP1997(), 88 * time.Microsecond},
		{"other", other, 140 * time.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const iters = 50
			rtt, acct := mplPingPong(tc.cfg, iters)
			if f := 2 * (2*tc.cfg.MPLOverhead + tc.cfg.WireLatency); rtt != f || rtt != tc.want {
				t.Errorf("MPL round trip %v, want 2·(2·MPLOverhead + WireLatency) = %v (%v)", rtt, f, tc.want)
			}
			c := acct.Counters
			if c[machine.CntMsgShort] != 2*iters || c[machine.CntMsgBulk] != 0 || c[machine.CntHandlersRun] != 2*iters {
				t.Errorf("%d round trips sent %d short and %d bulk messages and ran %d handlers, want 2, 0 and 2 per round trip",
					iters, c[machine.CntMsgShort], c[machine.CntMsgBulk], c[machine.CntHandlersRun])
			}
		})
	}
}

// TestMicroShape verifies Table 4's qualitative structure at quick scale —
// the orderings the paper's discussion rests on.
func TestMicroShape(t *testing.T) {
	rows := RunMicro(Cfg(), Quick())
	byName := map[string]MicroRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}

	simple := byName["0-Word Simple"]
	zero := byName["0-Word"]
	threaded := byName["0-Word Threaded"]
	gp := byName["GP 2-Word R/W"]
	bw := byName["BulkWrite 40-Word"]
	br := byName["BulkRead 40-Word"]
	pf := byName["Prefetch 20-Word (per elem)"]

	// Simple has no thread switches; the standard path has some; the
	// threaded path creates a thread.
	if simple.CCYield != 0 {
		t.Errorf("0-Word Simple yields = %v, want 0", simple.CCYield)
	}
	if zero.CCYield < 1 {
		t.Errorf("0-Word yields = %v, want >= 1", zero.CCYield)
	}
	if threaded.CCCreate < 1 {
		t.Errorf("0-Word Threaded creates = %v, want >= 1", threaded.CCCreate)
	}
	if !(simple.CCTotal < zero.CCTotal && zero.CCTotal < threaded.CCTotal) {
		t.Errorf("ordering broken: simple %v, 0-word %v, threaded %v",
			simple.CCTotal, zero.CCTotal, threaded.CCTotal)
	}
	// The 0-word simple RMI sits a few µs above the raw 55 µs AM RTT and
	// well below the 88 µs MPL RTT (the paper's headline claim).
	mpl := MPLReferenceRTT(Cfg(), 200)
	if simple.CCTotal <= Cfg().ShortRTT() || simple.CCTotal >= mpl {
		t.Errorf("0-Word Simple %v not in (AM %v, MPL %v)", simple.CCTotal, Cfg().ShortRTT(), mpl)
	}
	// Bulk reads cost more than bulk writes (return-path double copy).
	if br.CCTotal <= bw.CCTotal {
		t.Errorf("bulk read %v not slower than bulk write %v", br.CCTotal, bw.CCTotal)
	}
	// Split-C beats CC++ wherever both exist.
	for _, r := range []MicroRow{byName["0-Word Atomic"], gp, bw, br, pf} {
		if !r.HasSC {
			t.Errorf("%s missing Split-C measurement", r.Name)
			continue
		}
		if r.SCTotal >= r.CCTotal {
			t.Errorf("%s: split-c %v not faster than cc++ %v", r.Name, r.SCTotal, r.CCTotal)
		}
	}
	// Prefetch per-element lands in the paper's band: CC++ ~2-4x Split-C.
	ratio := float64(pf.CCTotal) / float64(pf.SCTotal)
	if ratio < 1.5 || ratio > 5 {
		t.Errorf("prefetch cc/sc per-element ratio %.2f outside [1.5,5]", ratio)
	}
}

func TestEM3DShape(t *testing.T) {
	rows := RunEM3D(Cfg(), Quick())
	if len(rows) != 12 {
		t.Fatalf("want 12 cells (3 variants x 4 pcts), got %d", len(rows))
	}
	get := func(v string, pct int) EM3DRow {
		for _, r := range rows {
			if string(r.Variant) == v && r.RemotePct == pct {
				return r
			}
		}
		t.Fatalf("missing cell %s/%d", v, pct)
		return EM3DRow{}
	}
	for _, pct := range RemotePcts {
		base, ghost, bulk := get("base", pct), get("ghost", pct), get("bulk", pct)
		// Optimizations help in both languages.
		if !(ghost.SC.Elapsed < base.SC.Elapsed && bulk.SC.Elapsed < ghost.SC.Elapsed) {
			t.Errorf("pct %d: sc variant ordering broken", pct)
		}
		if !(ghost.CC.Elapsed < base.CC.Elapsed && bulk.CC.Elapsed < ghost.CC.Elapsed) {
			t.Errorf("pct %d: cc variant ordering broken", pct)
		}
		// CC++ is slower but within the paper's competitive band.
		for _, r := range []EM3DRow{base, ghost, bulk} {
			ratio := r.CC.Ratio(r.SC)
			if ratio < 1.0 || ratio > 4.0 {
				t.Errorf("%s/%d: ratio %.2f outside [1,4]", r.Variant, pct, ratio)
			}
		}
	}
	// Bulk is the closest variant at full remoteness (paper: no significant
	// difference in em3d-bulk).
	b100, g100 := get("bulk", 100), get("ghost", 100)
	if b100.CC.Ratio(b100.SC) >= g100.CC.Ratio(g100.SC) {
		t.Errorf("bulk ratio %.2f not below ghost ratio %.2f",
			b100.CC.Ratio(b100.SC), g100.CC.Ratio(g100.SC))
	}
}

func TestWaterShape(t *testing.T) {
	rows := RunWater(Cfg(), Quick())
	if len(rows) != 4 {
		t.Fatalf("want 4 cells, got %d", len(rows))
	}
	for _, r := range rows {
		ratio := r.CC.Ratio(r.SC)
		if ratio < 1.0 || ratio > 8.0 {
			t.Errorf("water %s/%d: ratio %.2f outside [1,8]", r.Variant, r.N, ratio)
		}
	}
	// Prefetching helps both languages (paper: 60% improvement at 64).
	var atomicT, prefT time.Duration
	for _, r := range rows {
		if r.N != Quick().WaterSizes[0] {
			continue
		}
		if string(r.Variant) == "atomic" {
			atomicT = r.CC.Elapsed
		} else {
			prefT = r.CC.Elapsed
		}
	}
	if prefT >= atomicT {
		t.Errorf("cc++ prefetch %v not faster than atomic %v", prefT, atomicT)
	}
}

func TestLUShape(t *testing.T) {
	r := RunLU(Cfg(), Quick())
	ratio := r.CC.Ratio(r.SC)
	if ratio < 1.2 || ratio > 8 {
		t.Errorf("lu ratio %.2f outside [1.2,8] (paper: 3.6)", ratio)
	}
	// Synchronization and runtime overhead are visible gap components.
	if r.CC.Fraction(machine.CatThreadSync) <= 0 || r.CC.Fraction(machine.CatRuntime) <= 0 {
		t.Error("cc-lu missing sync/runtime components")
	}
}

func TestNexusCompareShape(t *testing.T) {
	rows := RunNexusCompare(Cfg(), Quick())
	if len(rows) != 6 {
		t.Fatalf("want 6 apps, got %d", len(rows))
	}
	for _, r := range rows {
		speedup := float64(r.Nexus.Elapsed) / float64(r.ThAM.Elapsed)
		if speedup < 2 {
			t.Errorf("%s: ThAM speedup %.1fx below 2x", r.App, speedup)
		}
		if speedup > 120 {
			t.Errorf("%s: ThAM speedup %.1fx implausible", r.App, speedup)
		}
	}
}

func TestAblationShape(t *testing.T) {
	rows := RunAblations(Cfg(), Quick())
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Config] = r
	}
	tuned := byName["tuned (paper §4)"]
	noCache := byName["no stub cache"]
	noBufs := byName["no persistent bufs"]
	if noCache.NullRMI <= tuned.NullRMI {
		t.Errorf("stub cache off (%v) not slower than tuned (%v)", noCache.NullRMI, tuned.NullRMI)
	}
	if noCache.ColdRMIs <= tuned.ColdRMIs {
		t.Errorf("stub cache off cold RMIs %d not above tuned %d", noCache.ColdRMIs, tuned.ColdRMIs)
	}
	if noBufs.BulkRMI <= tuned.BulkRMI {
		t.Errorf("persistent bufs off (%v) not slower on bulk than tuned (%v)", noBufs.BulkRMI, tuned.BulkRMI)
	}
}

func TestIrregularCrossover(t *testing.T) {
	rows := RunIrregular(Cfg(), Quick())
	if len(rows) < 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Static wins with no skew; dynamic wins at the top of the sweep; the
	// speedup is monotone enough to show a crossover.
	if rows[0].Speedup >= 1 {
		t.Errorf("dynamic won at zero skew (%.2f)", rows[0].Speedup)
	}
	last := rows[len(rows)-1]
	if last.Speedup <= 1 {
		t.Errorf("dynamic lost at skew %.2f (%.2f)", last.Skew, last.Speedup)
	}
	if last.Speedup <= rows[0].Speedup {
		t.Error("speedup did not grow with skew")
	}
}

func TestCodeSizeCountsSomething(t *testing.T) {
	rows := RunCodeSize()
	total := 0
	for _, r := range rows {
		total += r.GoLines
	}
	if total < 3000 {
		t.Fatalf("counted only %d implementation lines; source walk broken?", total)
	}
	var core CodeSizeRow
	for _, r := range rows {
		if strings.HasPrefix(r.Component, "core") {
			core = r
		}
	}
	if core.GoLines == 0 || core.PaperC != 2682 {
		t.Fatalf("core row malformed: %+v", core)
	}
}

func TestFormatters(t *testing.T) {
	// The formatters must render without panicking and include the paper
	// reference values.
	micro := FormatMicro(RunMicro(Cfg(), Quick()), MPLReferenceRTT(Cfg(), 100))
	if !strings.Contains(micro, "paperCC") || !strings.Contains(micro, "88 µs") {
		t.Error("micro table missing paper references")
	}
	cs := FormatCodeSize(RunCodeSize())
	if !strings.Contains(cs, "39226") {
		t.Error("code-size table missing Nexus line count")
	}
	ab := FormatAblations(RunAblations(Cfg(), Quick()))
	if !strings.Contains(ab, "no stub cache") {
		t.Error("ablation table incomplete")
	}
}

func TestScalesDiffer(t *testing.T) {
	full, quick := Full(), Quick()
	if full.LUN <= quick.LUN || full.EM3DNodes <= quick.EM3DNodes {
		t.Fatal("full scale not larger than quick scale")
	}
	if full.LUN != 512 || full.LUB != 16 || full.EM3DNodes != 800 {
		t.Fatalf("full scale drifted from the paper: %+v", full)
	}
}
