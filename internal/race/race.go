//go:build race

// Package race reports whether the binary was built with the race detector,
// as the standard library's internal/race does: the detector instruments
// allocation and drops sync.Pool entries at random, so tests that pin
// allocation counts skip themselves under it.
package race

// Enabled is true in a -race build.
const Enabled = true
