// Package suite registers the full mpmdvet pass list in one place, shared by
// cmd/mpmdvet and the meta-test that asserts the tree is clean.
package suite

import (
	"repro/internal/analysis"
	"repro/internal/analysis/passes/acctdirect"
	"repro/internal/analysis/passes/atomicmix"
	"repro/internal/analysis/passes/blockhold"
	"repro/internal/analysis/passes/bufown"
	"repro/internal/analysis/passes/framekind"
	"repro/internal/analysis/passes/hotpath"
	"repro/internal/analysis/passes/lockguard"
	"repro/internal/analysis/passes/lockorder"
	"repro/internal/analysis/passes/nilgate"
	"repro/internal/analysis/passes/shmatomic"
	"repro/internal/analysis/passes/wirewords"
)

// Analyzers is every enforced pass, in report order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		acctdirect.Analyzer,
		atomicmix.Analyzer,
		blockhold.Analyzer,
		bufown.Analyzer,
		framekind.Analyzer,
		hotpath.Analyzer,
		lockguard.Analyzer,
		lockorder.Analyzer,
		nilgate.Analyzer,
		shmatomic.Analyzer,
		wirewords.Analyzer,
	}
}
