package bench

import (
	"encoding/json"
	"time"
)

// Report is the machine-readable form of an mpmdbench run, emitted by the
// -json flag. Row payloads are the same structs the text formatters render;
// time.Duration fields marshal as integer nanoseconds.
type Report struct {
	// Schema versions the report layout.
	Schema string `json:"schema"`
	// Backend is "sim" (calibrated virtual time), "live" or "net" (wall-clock).
	Backend string `json:"backend"`
	// Profile is the machine cost profile (cfg.Name); Scale the experiment
	// sizing ("full" or "quick").
	Profile string `json:"profile"`
	Scale   string `json:"scale"`
	// DurationUnit documents how duration-typed row fields are encoded.
	DurationUnit string `json:"duration_unit"`
	// WallMS is the total wall-clock time of the run in milliseconds.
	WallMS      float64      `json:"wall_ms"`
	Experiments []Experiment `json:"experiments"`
}

// Experiment is one named table or figure regeneration within a report.
type Experiment struct {
	Name string `json:"name"`
	// WallMS is how long the regeneration took in wall-clock milliseconds
	// (sim-backend row times are virtual and live inside Rows).
	WallMS float64 `json:"wall_ms"`
	// Rows carries the experiment's row structs verbatim.
	Rows any `json:"rows"`
}

// ReportSchema is the current report schema identifier. v7 reports carry
// the simulator experiments (table1 … coll, every duration in virtual time)
// and the observability experiment ("stats", []StatsRow) on all three
// backends; the wall-clock throughput, live-micro and live coll experiments
// of v2–v5 are gone — benchmark/ measures those. Since v7 a gauge row is its
// high-water mark alone (no "last"), and "shm.frames.in" is gone: it is
// "shm.frames.in.proc" + "shm.frames.in.reader".
const ReportSchema = "mpmdbench/v7"

// NewReport starts an empty report for the given backend, profile and scale.
func NewReport(backend, profile, scale string) *Report {
	return &Report{
		Schema:       ReportSchema,
		Backend:      backend,
		Profile:      profile,
		Scale:        scale,
		DurationUnit: "ns",
	}
}

// Add appends one experiment's rows.
func (r *Report) Add(name string, wall time.Duration, rows any) {
	r.Experiments = append(r.Experiments, Experiment{
		Name:   name,
		WallMS: float64(wall.Microseconds()) / 1000,
		Rows:   rows,
	})
	r.WallMS += float64(wall.Microseconds()) / 1000
}

// JSON renders the report, indented for textual diffing.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// MicroReport wraps Table 4's rows with the MPL reference round trip so the
// JSON form carries everything the text table shows.
type MicroReport struct {
	Rows            []MicroRow    `json:"rows"`
	MPLReferenceRTT time.Duration `json:"mpl_reference_rtt_ns"`
}
