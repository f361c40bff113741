// Package suite registers the full mpmdvet pass list in one place, shared by
// cmd/mpmdvet and the meta-test that asserts the tree is clean.
package suite

import (
	"repro/internal/analysis"
	"repro/internal/analysis/passes/bufown"
	"repro/internal/analysis/passes/hotpath"
	"repro/internal/analysis/passes/locks"
)

// Analyzers is every enforced pass, in report order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		locks.Blockhold,
		bufown.Analyzer,
		hotpath.Analyzer,
		locks.Lockguard,
		locks.Lockorder,
	}
}
