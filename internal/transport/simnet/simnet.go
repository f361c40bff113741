// Package simnet adapts the deterministic discrete-event engine
// (internal/sim) to the transport.Backend contract. It is the reference
// backend: all of the paper's calibrated numbers are produced on it, and its
// behavior is identical to the pre-seam code — every method is a direct
// forward to the engine. The machine delivers a message by scheduling one
// engine event itself, after the modelled wire latency.
//
// The per-node serialization contract holds trivially: the engine runs
// exactly one goroutine (one process or one event callback) at any instant,
// machine-wide.
package simnet

import (
	"time"

	"repro/internal/sim"
	"repro/internal/transport"
)

// Backend is the simulator-backed transport. Construct with New.
type Backend struct {
	eng *sim.Engine
	n   int
}

// New builds a simnet backend for n nodes over a fresh engine.
func New(n int) *Backend { return &Backend{eng: sim.New(), n: n} }

// Engine exposes the underlying discrete-event engine for simulator-specific
// access (scheduling raw events, reading event counts).
func (b *Backend) Engine() *sim.Engine { return b.eng }

// Name implements transport.Backend.
func (b *Backend) Name() string { return "sim" }

// NumNodes implements transport.Backend.
func (b *Backend) NumNodes() int { return b.n }

// Now implements transport.Backend: the current virtual time.
func (b *Backend) Now() time.Duration { return b.eng.Now() }

// Go implements transport.Backend. Node affinity needs no enforcement here —
// the engine's global interleaving already serializes everything.
func (b *Backend) Go(node int, name string, fn func(transport.Proc)) transport.Proc {
	return b.eng.Go(name, func(p *sim.Proc) { fn(p) })
}

// Run implements transport.Backend: drive the event loop to completion,
// reporting *sim.DeadlockError if parked processes remain.
func (b *Backend) Run() error { return b.eng.Run() }
