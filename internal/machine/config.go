// Package machine models a distributed-memory multicomputer: a set of nodes,
// each with a single CPU running cooperative threads, connected by a network
// with LogP-style costs (send overhead, wire latency, per-byte gap, receive
// overhead).
//
// All costs are virtual time charged against the discrete-event engine in
// package sim. The stock profile, SP1997, is calibrated from the measured
// constants reported in Chang et al., "Evaluating the Performance Limitations
// of MPMD Communication" (SC 1997) for an IBM RS/6000 SP running AIX 3.2.5:
// an Active-Messages 0-word round trip of 55 µs, +15 µs per round trip for
// bulk transfers, thread create 5 µs, context switch 6 µs, and 0.4 µs per
// lock/unlock/signal.
package machine

import "time"

// Config holds every primitive cost in the machine model. A Config is a
// plain value: copy it, tweak a field, and build a new Machine to run
// sensitivity studies (the ablation benchmarks do exactly this).
type Config struct {
	// Name identifies the profile in reports.
	Name string

	// Network (LogP-style).

	// SendOverhead is CPU time the sender spends per message (short AM).
	SendOverhead time.Duration
	// RecvOverhead is CPU time the receiver spends per message when it is
	// polled out of the network queue, before the handler body runs.
	RecvOverhead time.Duration
	// WireLatency is the one-way switch/wire latency for any message.
	WireLatency time.Duration
	// BulkExtraSend is additional per-message sender CPU for bulk-transfer
	// messages (DMA setup, pinning); charged once per bulk message.
	BulkExtraSend time.Duration
	// BulkExtraRecv is the receiver-side counterpart of BulkExtraSend.
	BulkExtraRecv time.Duration
	// GapPerByte is the per-payload-byte occupancy of the network interface,
	// charged to the sender (bandwidth = 1/GapPerByte).
	GapPerByte time.Duration

	// Threads package.

	// ThreadCreate is the cost of forking a new thread.
	ThreadCreate time.Duration
	// ContextSwitch is the cost of switching between two ready threads.
	ContextSwitch time.Duration
	// SyncOp is the cost of one lock, unlock, signal, or sync-variable
	// operation.
	SyncOp time.Duration

	// CPU / memory.

	// FlopCost is the time per floating-point operation charged by the
	// application kernels (POWER2-era sustained rate).
	FlopCost time.Duration
	// MemCopyPerByte is the cost per byte of a memory-to-memory copy
	// (buffer staging, unmarshal copies).
	MemCopyPerByte time.Duration
	// MarshalPerArg is the cost of invoking one serialization method
	// (CC++ calls a method per argument; only partially inlinable).
	MarshalPerArg time.Duration
	// StubLookup is the warm-path method-stub cache lookup cost.
	StubLookup time.Duration
	// LocalGPDeref is the overhead of touching *local* data through a
	// global pointer in the MPMD runtime (locality check + indirection).
	LocalGPDeref time.Duration

	// Messaging-layer alternatives.

	// MPLOverhead is per-side CPU overhead of the IBM MPL reference layer.
	MPLOverhead time.Duration

	// InterruptCost is the kernel cost of delivering a software interrupt to
	// the application on message arrival. The paper's runtime polls instead,
	// "due to the high cost of software interrupts on message arrival on the
	// IBM SP"; the interrupt-driven reception model (an ablation here, future
	// work in the paper) charges this per received message.
	InterruptCost time.Duration

	// Nexus/TCP profile knobs (what core.Options.Nexus charges per message).

	// NexusPerMsgCPU is per-side protocol-stack CPU per message.
	NexusPerMsgCPU time.Duration
	// NexusLatency is the one-way latency of the TCP path over the switch.
	NexusLatency time.Duration
	// NexusGapPerByte is the per-byte cost on the TCP path.
	NexusGapPerByte time.Duration
}

// SP1997 returns the calibrated IBM SP profile used throughout the paper
// reproduction. See the package comment and DESIGN.md §5 for the derivation
// of each constant.
func SP1997() Config {
	return Config{
		Name: "IBM-SP-AIX325",

		SendOverhead:  3 * time.Microsecond,
		RecvOverhead:  3 * time.Microsecond,
		WireLatency:   21500 * time.Nanosecond, // 0-word RTT = 2*(3+21.5+3) = 55 µs
		BulkExtraSend: 7500 * time.Nanosecond,  // bulk RTT = 55 + 15 µs
		BulkExtraRecv: 0,
		GapPerByte:    25 * time.Nanosecond, // ~40 MB/s

		ThreadCreate:  5 * time.Microsecond,
		ContextSwitch: 6 * time.Microsecond,
		SyncOp:        400 * time.Nanosecond,

		FlopCost:       25 * time.Nanosecond, // ~40 Mflop/s sustained
		MemCopyPerByte: 12 * time.Nanosecond,
		MarshalPerArg:  1 * time.Microsecond,
		StubLookup:     3 * time.Microsecond,
		LocalGPDeref:   300 * time.Nanosecond,

		MPLOverhead: 11250 * time.Nanosecond, // MPL RTT = 2*(11.25+21.5+11.25) = 88 µs

		InterruptCost: 60 * time.Microsecond, // AIX 3.2.5-era software interrupt

		NexusPerMsgCPU:  180 * time.Microsecond,
		NexusLatency:    500 * time.Microsecond,
		NexusGapPerByte: 300 * time.Nanosecond, // ~3.3 MB/s effective TCP path
	}
}

// ShortRTT returns the model's zero-payload short-message round-trip time:
// two messages, each paying send overhead, wire latency, and receive
// overhead. For SP1997 this is 55 µs, matching the paper's AM layer.
func (c Config) ShortRTT() time.Duration {
	oneWay := c.SendOverhead + c.WireLatency + c.RecvOverhead
	return 2 * oneWay
}

// BulkRTT returns the round-trip time of a bulk request of n bytes answered
// by a bulk reply of m bytes.
func (c Config) BulkRTT(n, m int) time.Duration {
	req := c.SendOverhead + c.BulkExtraSend + time.Duration(n)*c.GapPerByte + c.WireLatency + c.RecvOverhead + c.BulkExtraRecv
	rep := c.SendOverhead + c.BulkExtraSend + time.Duration(m)*c.GapPerByte + c.WireLatency + c.RecvOverhead + c.BulkExtraRecv
	return req + rep
}

// Validate reports whether the configuration is self-consistent (all costs
// non-negative, at least one node-facing cost positive). A zero Config is
// valid but degenerate; benchmarks should use a named profile.
func (c Config) Validate() error {
	for _, d := range []time.Duration{
		c.SendOverhead, c.RecvOverhead, c.WireLatency, c.BulkExtraSend,
		c.BulkExtraRecv, c.GapPerByte, c.ThreadCreate, c.ContextSwitch,
		c.SyncOp, c.FlopCost, c.MemCopyPerByte, c.MarshalPerArg,
		c.StubLookup, c.LocalGPDeref, c.MPLOverhead, c.InterruptCost,
		c.NexusPerMsgCPU, c.NexusLatency, c.NexusGapPerByte,
	} {
		if d < 0 {
			return errNegativeCost
		}
	}
	return nil
}

var errNegativeCost = errorString("machine: negative cost in Config")

type errorString string

func (e errorString) Error() string { return string(e) }
