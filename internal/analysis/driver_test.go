package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestDiffBaseline(t *testing.T) {
	sum := &Summary{
		Suppressed: []Suppression{
			{Pass: "hotpath", Position: "a.go:10", Reason: "trace-gated"},
			{Pass: "hotpath", Position: "a.go:20", Reason: ""},
			{Pass: "bufown", Position: "b.go:5", Reason: "pool handoff"},
		},
		SuppressedByPass: map[string]int{"hotpath": 2, "bufown": 1},
	}
	base := &Baseline{SuppressedByPass: map[string]int{"hotpath": 1, "bufown": 2, "lockorder": 1}}
	drift := sum.DiffBaseline(base)
	if len(drift) != 4 {
		t.Fatalf("want 4 violations (1 missing reason, 3 count drifts), got %d: %v", len(drift), drift)
	}
	joined := strings.Join(drift, "\n")
	for _, want := range []string{
		"a.go:20: suppression of hotpath has no reason",
		"pass hotpath: 2 suppressions, baseline pins 1",
		"pass bufown: 1 suppressions, baseline pins 2",
		"pass lockorder: 0 suppressions, baseline pins 1",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing violation %q in:\n%s", want, joined)
		}
	}
}

func TestDiffBaselineExactMatchClean(t *testing.T) {
	sum := &Summary{
		Suppressed:       []Suppression{{Pass: "hotpath", Position: "a.go:1", Reason: "why"}},
		SuppressedByPass: map[string]int{"hotpath": 1},
	}
	base := &Baseline{SuppressedByPass: map[string]int{"hotpath": 1}}
	if drift := sum.DiffBaseline(base); len(drift) != 0 {
		t.Fatalf("exact match should be clean, got %v", drift)
	}
}

func TestLoadBaseline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.json")
	if _, err := LoadBaseline(path); err == nil {
		t.Fatal("expected an error for a missing baseline file")
	}
	writeFile(t, path, `{"suppressed_by_pass": {"hotpath": 3}}`)
	b, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.SuppressedByPass["hotpath"] != 3 {
		t.Fatalf("bad baseline decode: %+v", b)
	}
	writeFile(t, path, `not json`)
	if _, err := LoadBaseline(path); err == nil || !strings.Contains(err.Error(), "baseline") {
		t.Fatalf("expected a decode error naming the file, got %v", err)
	}
}
