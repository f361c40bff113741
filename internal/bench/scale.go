// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation (§6), each reproducing the corresponding rows or
// bar groups, plus the §6 CC++/Nexus comparison and ablations of the §4
// design choices.
//
// Every runner takes a Scale so the full paper configuration and a quick
// CI-sized configuration share all code paths. Absolute times come from the
// calibrated virtual machine model. The one runner that also goes on the
// wall-clock backends is the observability report (stats.go); wall-clock
// performance is benchmark/'s job.
package bench

import "repro/internal/machine"

// Scale sizes the experiments.
type Scale struct {
	Name string
	// MicroIters is the averaging count for Table 4 (paper: 10000).
	MicroIters int
	// EM3DIters is EM3D update steps per run (the paper's per-edge numbers
	// are iteration-invariant in steady state).
	EM3DIters int
	// EM3DNodes and EM3DDegree size the graph (paper: 800 / 20).
	EM3DNodes, EM3DDegree int
	// WaterSizes are molecule counts (paper: 64 and 512).
	WaterSizes []int
	// WaterSteps is simulation steps per Water run.
	WaterSteps int
	// LUN and LUB are matrix and block size (paper: 512 / 16).
	LUN, LUB int
	// NexusWaterSize keeps the Nexus comparison tractable.
	NexusWaterSize int
}

// Full returns the paper's experiment configuration (Table 4 averaging is
// reduced from 10000 to 2000 iterations: the simulator is deterministic, so
// additional averaging adds nothing but time).
func Full() Scale {
	return Scale{
		Name:       "full",
		MicroIters: 2000,
		EM3DIters:  10, EM3DNodes: 800, EM3DDegree: 20,
		WaterSizes: []int{64, 512}, WaterSteps: 1,
		LUN: 512, LUB: 16,
		NexusWaterSize: 64,
	}
}

// Quick returns a CI-sized configuration exercising every code path.
func Quick() Scale {
	return Scale{
		Name:       "quick",
		MicroIters: 200,
		EM3DIters:  3, EM3DNodes: 160, EM3DDegree: 8,
		WaterSizes: []int{16, 48}, WaterSteps: 1,
		LUN: 64, LUB: 8,
		NexusWaterSize: 16,
	}
}

// Cfg returns the machine profile all experiments run on.
func Cfg() machine.Config { return machine.SP1997() }
