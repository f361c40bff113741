// Package repro's top-level benchmarks regenerate every table and figure of
// the paper's evaluation (§6). One testing.B benchmark per experiment:
//
//	BenchmarkTable1CodeSize      — Table 1 (source-code size)
//	BenchmarkTable4Micro         — Table 4 (communication micro-benchmarks)
//	BenchmarkFig5EM3D/*          — Figure 5 (EM3D, 3 variants × 4 remote %)
//	BenchmarkFig6Water/*         — Figure 6 (Water, 2 variants × 2 sizes)
//	BenchmarkFig6LU              — Figure 6 (Blocked LU)
//	BenchmarkNexusCompare        — §6 CC++/ThAM vs CC++/Nexus
//	BenchmarkAblation/*          — §4 design-choice ablations
//
// Each benchmark reports the paper-relevant quantity as custom metrics
// (virtual microseconds and CC++/Split-C ratios); wall-clock ns/op only
// measures the simulator. Run everything with:
//
//	go test -bench=. -benchmem
//
// The full-size experiment output (paper-scale parameters) comes from
// cmd/mpmdbench; these benchmarks use the quick scale so the suite stays
// fast while exercising identical code paths.
package repro_test

import (
	"testing"

	"repro/internal/apps/em3d"
	"repro/internal/apps/lu"
	"repro/internal/apps/water"
	"repro/internal/bench"
	"repro/internal/core"
)

func BenchmarkTable1CodeSize(b *testing.B) {
	var rows []bench.CodeSizeRow
	for i := 0; i < b.N; i++ {
		rows = bench.RunCodeSize()
	}
	total := 0
	for _, r := range rows {
		total += r.GoLines
	}
	b.ReportMetric(float64(total), "impl-lines")
}

func BenchmarkTable4Micro(b *testing.B) {
	sc := bench.Quick()
	var rows []bench.MicroRow
	for i := 0; i < b.N; i++ {
		rows = bench.RunMicro(bench.Cfg(), sc)
	}
	for _, r := range rows {
		switch r.Name {
		case "0-Word Simple":
			b.ReportMetric(float64(r.CCTotal.Nanoseconds())/1000, "simple-µs")
		case "0-Word Threaded":
			b.ReportMetric(float64(r.CCTotal.Nanoseconds())/1000, "threaded-µs")
		case "BulkRead 40-Word":
			b.ReportMetric(float64(r.CCTotal.Nanoseconds())/1000, "bulkread-µs")
		}
	}
}

func BenchmarkTable4MPLReference(b *testing.B) {
	var rtt float64
	for i := 0; i < b.N; i++ {
		rtt = float64(bench.MPLReferenceRTT(bench.Cfg(), 100).Nanoseconds()) / 1000
	}
	b.ReportMetric(rtt, "rtt-µs")
}

func benchEM3D(b *testing.B, variant em3d.Variant, remotePct int) {
	sc := bench.Quick()
	p := em3d.Params{
		GraphNodes: sc.EM3DNodes, Degree: sc.EM3DDegree, Procs: 4,
		RemotePct: remotePct, Iters: sc.EM3DIters, Seed: 1,
	}
	base := em3d.Build(p)
	var ratio float64
	for i := 0; i < b.N; i++ {
		scRes, err := em3d.RunSplitC(bench.Cfg(), base.Clone(), variant)
		if err != nil {
			b.Fatal(err)
		}
		ccRes, err := em3d.RunCCXX(bench.Cfg(), base.Clone(), variant, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ratio = ccRes.Ratio(scRes)
	}
	b.ReportMetric(ratio, "cc/sc-ratio")
}

func BenchmarkFig5EM3D(b *testing.B) {
	for _, variant := range em3d.Variants() {
		for _, pct := range bench.RemotePcts {
			variant, pct := variant, pct
			b.Run(string(variant)+"/remote"+itoa(pct), func(b *testing.B) {
				benchEM3D(b, variant, pct)
			})
		}
	}
}

func benchWater(b *testing.B, variant water.Variant, n int) {
	sc := bench.Quick()
	p := water.Params{N: n, Procs: 4, Steps: sc.WaterSteps, Seed: 3}
	base := water.Build(p)
	var ratio float64
	for i := 0; i < b.N; i++ {
		scRes, err := water.RunSplitC(bench.Cfg(), base.Clone(), variant)
		if err != nil {
			b.Fatal(err)
		}
		ccRes, err := water.RunCCXX(bench.Cfg(), base.Clone(), variant, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ratio = ccRes.Ratio(scRes)
	}
	b.ReportMetric(ratio, "cc/sc-ratio")
}

func BenchmarkFig6Water(b *testing.B) {
	for _, variant := range water.Variants() {
		for _, n := range bench.Quick().WaterSizes {
			variant, n := variant, n
			b.Run(string(variant)+"/n"+itoa(n), func(b *testing.B) {
				benchWater(b, variant, n)
			})
		}
	}
}

func BenchmarkFig6LU(b *testing.B) {
	sc := bench.Quick()
	p := lu.Params{N: sc.LUN, B: sc.LUB, Procs: 4, Seed: 5}
	base := lu.Build(p)
	var ratio float64
	for i := 0; i < b.N; i++ {
		scRes, err := lu.RunSplitC(bench.Cfg(), base.Clone())
		if err != nil {
			b.Fatal(err)
		}
		ccRes, err := lu.RunCCXX(bench.Cfg(), base.Clone(), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ratio = ccRes.Ratio(scRes)
	}
	b.ReportMetric(ratio, "cc/sc-ratio")
}

func BenchmarkNexusCompare(b *testing.B) {
	sc := bench.Quick()
	p := em3d.Params{GraphNodes: sc.EM3DNodes / 2, Degree: sc.EM3DDegree, Procs: 4,
		RemotePct: 100, Iters: 2, Seed: 1}
	base := em3d.Build(p)
	var speedup float64
	for i := 0; i < b.N; i++ {
		th, err := em3d.RunCCXX(bench.Cfg(), base.Clone(), em3d.Ghost, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		nx, err := em3d.RunCCXX(bench.Cfg(), base.Clone(), em3d.Ghost, core.Options{Nexus: true})
		if err != nil {
			b.Fatal(err)
		}
		speedup = float64(nx.Elapsed) / float64(th.Elapsed)
	}
	b.ReportMetric(speedup, "tham-speedup")
}

func BenchmarkAblation(b *testing.B) {
	cases := []struct {
		name string
		opts core.Options
	}{
		{"tuned", core.Options{}},
		{"noStubCache", core.Options{DisableStubCache: true}},
		{"noPersistentBufs", core.Options{DisablePersistentBuffers: true}},
		{"spinSenders", core.Options{SpinSenders: true}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var rows []bench.AblationRow
			for i := 0; i < b.N; i++ {
				rows = bench.RunAblations(bench.Cfg(), bench.Quick())
			}
			for _, r := range rows {
				if (c.name == "tuned" && r.Config == "tuned (paper §4)") ||
					(c.name == "noStubCache" && r.Config == "no stub cache") ||
					(c.name == "noPersistentBufs" && r.Config == "no persistent bufs") ||
					(c.name == "spinSenders" && r.Config == "spin senders") {
					b.ReportMetric(float64(r.NullRMI.Nanoseconds())/1000, "nullRMI-µs")
				}
			}
		})
	}
}

func BenchmarkIrregularTaskFarm(b *testing.B) {
	var rows []bench.IrregularRow
	for i := 0; i < b.N; i++ {
		rows = bench.RunIrregular(bench.Cfg(), bench.Quick())
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.Speedup, "mpmd-speedup@skew0.9")
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
