package blockhold_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/passes/locks"
)

func TestBlockhold(t *testing.T) {
	results := analysistest.Run(t, locks.Blockhold, "a")
	if n := len(results[0].Suppressed); n != 1 {
		t.Errorf("expected exactly 1 pragma-suppressed diagnostic (the escape-hatch case), got %d", n)
	}
}

func TestBlockholdTransitive(t *testing.T) {
	analysistest.Run(t, locks.Blockhold, "chain")
}
