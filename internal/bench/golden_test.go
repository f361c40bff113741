package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenTables pins the simulator's text tables at quick scale byte for
// byte: the "same numbers" fixed point of ROADMAP aim 2 (table4, fig5, fig6,
// nexus, ablate, irregular, coll). table1 is absent because it counts source
// lines. A deliberate recalibration regenerates a file by deleting it and
// running the test once: a missing file is written, and the test fails so
// the new numbers are read before they are committed.
func TestGoldenTables(t *testing.T) {
	cfg, sc := Cfg(), Quick()
	tables := []struct {
		name   string
		render func() string
	}{
		{"table4", func() string { return FormatMicro(RunMicro(cfg, sc), MPLReferenceRTT(cfg, sc.MicroIters)) }},
		{"fig5", func() string { return FormatEM3D(RunEM3D(cfg, sc)) }},
		{"fig6-water", func() string { return FormatWater(RunWater(cfg, sc)) }},
		{"fig6-lu", func() string { return FormatLU(RunLU(cfg, sc)) }},
		{"nexus", func() string { return FormatNexus(RunNexusCompare(cfg, sc)) }},
		{"ablate", func() string { return FormatAblations(RunAblations(cfg, sc)) }},
		{"irregular", func() string { return FormatIrregular(RunIrregular(cfg, sc)) }},
		{"coll", func() string { return FormatColl(RunCollBench(cfg, sc)) }},
	}
	for _, tb := range tables {
		t.Run(tb.name, func(t *testing.T) {
			t.Parallel()
			got := tb.render()
			path := filepath.Join("testdata", tb.name+".golden")
			want, err := os.ReadFile(path)
			if os.IsNotExist(err) {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Fatalf("%s did not exist: written from this run; read it, then commit it", path)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got == string(want) {
				return
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := range min(len(gl), len(wl)) {
				if gl[i] != wl[i] {
					t.Fatalf("%s differs from %s at line %d:\n got: %s\nwant: %s", tb.name, path, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("%s has %d lines, %s has %d", tb.name, len(gl), path, len(wl))
		})
	}
}
