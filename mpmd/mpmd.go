// Package mpmd is the public API of the MPMD-communication study
// reproduction (Chang, Czajkowski, von Eicken, Kesselman: "Evaluating the
// Performance Limitations of MPMD Communication", SC 1997).
//
// # Typed API (v2) — the recommended surface
//
// A processor object is an ordinary Go struct; RegisterClass derives its
// remotely invocable interface from methods whose first parameter is a
// *Thread, and Invoke/InvokeAsync/InvokeOneWay make compile-time-checked
// RMIs through typed Refs:
//
//	type Counter struct{ n int64 }
//
//	func (c *Counter) Add(t *mpmd.Thread, n int64) { c.n += n }
//	func (c *Counter) Get(t *mpmd.Thread) int64    { return c.n }
//
//	m := mpmd.NewMachine(mpmd.SPConfig(), 2)   // or NewLiveMachine
//	rt := mpmd.NewRuntime(m)
//	if err := mpmd.RegisterClass[Counter](rt); err != nil { ... }
//	ctr, err := mpmd.NewObject[Counter](rt, 1) // typed ref to node 1's object
//	rt.OnNode(0, func(t *mpmd.Thread) {
//		mpmd.Invoke[int64, mpmd.Void](t, ctr, "Add", 21)
//		v, _ := mpmd.Invoke[mpmd.Void, int64](t, ctr, "Get", mpmd.Void{})
//		_ = v
//	})
//	if err := rt.Run(); err != nil { ... }
//
// Argument and return types are int, int64, float64, string, []byte,
// []float64, or structs of those; the optional RMIOptions method flags
// methods Threaded or Atomic. Misuse — unregistered types, unknown
// methods, type mismatches, invoking outside a running program — returns
// descriptive errors at bind time. The typed layer lowers onto the untyped
// wire path with zero added modelled cost (see typed.go and the parity
// test), so the paper's calibrated numbers are identical on either surface.
//
// # Teams, collectives, and distributed arrays
//
// The data-parallel surface (team.go, dist.go) scopes group operations to a
// Team — a communicator over a node subset. WorldTeam returns the all-nodes
// team; Team.Split partitions it MPI-style. The typed collectives
// Broadcast, Reduce/AllReduce (Sum/Max/Min or any user combiner),
// Scatter/Gather/AllGather, and Team.Barrier run log-depth
// binomial/dissemination trees whose every message is one active message,
// not an RMI: no method is dispatched, and on the simulator it costs what
// the AM layer charges under the runtime's cost profile plus one receive
// copy. Dist[T] is a typed distributed array (block or
// cyclic layout) with Get/Put, split-phase GetAsync/PutAsync returning
// typed Future[T] handles, and ForEachLocal for owner-computes loops — the
// generalization of Split-C's float64-only spread arrays, usable from CC++
// programs on either backend. A remote element access is a request/reply
// pair of active messages of the remote-memory protocol both runtimes share
// (am.Mem), not an RMI.
//
// # Low-level (untyped) API
//
// The 1997-shaped layer the typed façade compiles down to remains exported
// for benchmarks, ablations, and code that needs explicit control of the
// wire format: hand-written Class/Method tables with NewArgs/NewRet
// factories, opaque GPtrs, []Arg marshalling, and Runtime.Call and
// friends. Ref.GPtr() bridges from typed refs down to it.
//
// # Everything else
//
// The package also re-exports the stable surface of the internal packages:
//
//   - a deterministic simulated multicomputer calibrated to the paper's
//     IBM RS/6000 SP measurements (NewMachine, SPConfig), plus pluggable
//     execution backends: the same machine, runtimes, and programs run on
//     real goroutines with wall-clock timing via NewLiveMachine, or sharded
//     across OS processes via NewNetMachine, whose packets ride shared-memory
//     rings between the processes (see the transport packages);
//   - the paper's contribution, a lean CC++ runtime over Active Messages
//     ("CC++/ThAM"): processor objects, remote method invocation with stub
//     caching and persistent buffers, global pointers, par/parfor, sync
//     variables (NewRuntime, Class, GPtr, Par/ParFor, SyncVar);
//   - the Split-C SPMD baseline runtime (NewSplitC; SCPtr and SCVec are its
//     global pointers — spread arrays and reductions are Dist and the typed
//     collectives);
//   - the Nexus/TCP cost profile of the original CC++ implementation, for the
//     paper's §6 comparison (Options.Nexus).
//
// The harness that regenerates the paper's tables and figures is the
// mpmdbench command, not part of this package.
//
// See examples/ for runnable programs and DESIGN.md for the system map.
package mpmd

import (
	"io"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/splitc"
	"repro/internal/threads"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/transport/live"
)

// --- machine model -----------------------------------------------------------

// Machine is the simulated multicomputer.
type Machine = machine.Machine

// Config holds the machine's primitive costs.
type Config = machine.Config

// Category labels a time-breakdown bucket (net/cpu/thread-mgmt/thread-sync/
// runtime).
type Category = machine.Category

// Breakdown categories, mirroring the bars of the paper's Figures 5 and 6.
const (
	CatCPU        = machine.CatCPU
	CatNet        = machine.CatNet
	CatThreadMgmt = machine.CatThreadMgmt
	CatThreadSync = machine.CatThreadSync
	CatRuntime    = machine.CatRuntime
)

// SPConfig returns the calibrated IBM SP (AIX 3.2.5) cost profile the paper
// measured on.
func SPConfig() Config { return machine.SP1997() }

// NewMachine builds a simulated multicomputer with n nodes.
func NewMachine(cfg Config, n int) *Machine { return machine.New(cfg, n) }

// --- execution backends ------------------------------------------------------

// Backend is the execution substrate a Machine runs on: the calibrated
// discrete-event simulator (the NewMachine default), real goroutines with
// wall-clock timing (NewLiveMachine), or nodes sharded across OS processes
// (NewNetMachine). All run the identical runtime stack.
type Backend = transport.Backend

// LiveOptions tunes the live backend (the run watchdog); the zero value is
// ready to use.
type LiveOptions = live.Options

// NewLiveBackend builds a real-concurrency backend for n nodes.
func NewLiveBackend(n int, opts LiveOptions) Backend { return live.New(n, opts) }

// NewLiveMachine builds a multicomputer whose nodes are real goroutines:
// the cost model's latencies are ignored, programs run as fast as the
// hardware allows, and clocks read wall time.
func NewLiveMachine(cfg Config, n int) *Machine {
	return NewMachineWithBackend(cfg, n, live.New(n, LiveOptions{}))
}

// NewMachineWithBackend builds a multicomputer over an explicit backend.
func NewMachineWithBackend(cfg Config, n int, be Backend) *Machine {
	return machine.NewWithBackend(cfg, n, be)
}

// --- threads ------------------------------------------------------------------

// Thread is a cooperative thread on a simulated node; every runtime entry
// point takes the calling thread.
type Thread = threads.Thread

// Mutex, Cond, SyncVar and WaitGroup are the thread-synchronization objects
// of the simulated non-preemptive threads package.
type (
	Mutex     = threads.Mutex
	Cond      = threads.Cond
	SyncVar   = threads.SyncVar
	WaitGroup = threads.WaitGroup
)

// --- CC++ runtime (the paper's contribution) -----------------------------------

// Runtime is the CC++/ThAM runtime.
type Runtime = core.Runtime

// Options configure a Runtime: the ablation switches of the paper's §4 design
// choices, and Nexus, the §6 comparison's message-layer cost profile.
type Options = core.Options

// Class describes a processor-object class; Method one invocable method.
// These are the low-level registration tables; application code normally
// uses RegisterClass[T] (typed.go), which derives them.
type (
	Class  = core.Class
	Method = core.Method
)

// GPtr is an opaque global pointer to a processor object (the low-level
// form of Ref[T]); GPF64 a global pointer to a double with the optimized
// small-message access path.
type (
	GPtr  = core.GPtr
	GPF64 = core.GPF64
)

// Arg is a marshallable RMI argument; F64, I64, F64Slice, Bytes and Str are
// the provided implementations.
type (
	Arg      = core.Arg
	F64      = core.F64
	I64      = core.I64
	F64Slice = core.F64Slice
	Bytes    = core.Bytes
	Str      = core.Str
)

// UntypedFuture joins an asynchronous low-level RMI (Runtime.CallAsync);
// the typed surface returns Future[R] instead. Barrier is RMI-built global
// synchronization over a central counter; Team.Barrier is the log-depth
// alternative.
type (
	UntypedFuture = core.Future
	Barrier       = core.Barrier
)

// NewRuntime builds a CC++/ThAM runtime over m.
func NewRuntime(m *Machine) *Runtime { return core.NewRuntime(m) }

// NewRuntimeOpts builds a CC++ runtime with explicit options.
func NewRuntimeOpts(m *Machine, opts Options) *Runtime { return core.NewRuntimeOpts(m, opts) }

// NewGPF64 builds a global pointer to element off of node's part of segment
// seg, an array of doubles registered with Runtime.AddF64.
func NewGPF64(node, seg, off int) GPF64 { return core.NewGPF64(node, seg, off) }

// Par runs blocks concurrently and joins (CC++ par).
func Par(t *Thread, blocks ...func(*Thread)) { core.Par(t, blocks...) }

// ParFor runs n iterations concurrently, one thread each (CC++ parfor).
func ParFor(t *Thread, n int, body func(*Thread, int)) { core.ParFor(t, n, body) }

// Spawn launches fn without joining (CC++ spawn), returning a completion
// sync variable.
func Spawn(t *Thread, name string, fn func(*Thread)) *SyncVar { return core.Spawn(t, name, fn) }

// --- Split-C baseline -----------------------------------------------------------

// SplitCWorld is an SPMD program instance; SplitCProc the per-node context.
type (
	SplitCWorld = splitc.World
	SplitCProc  = splitc.Proc
)

// SCPtr is a Split-C global pointer to a double, SCVec one to a vector: a
// processor, a segment (SplitCWorld.Share), an offset and, for a vector, a
// length.
type (
	SCPtr = splitc.GPF
	SCVec = splitc.GVF
)

// NewSplitC builds a Split-C world over m.
func NewSplitC(m *Machine) *SplitCWorld { return splitc.New(m) }

// --- tracing ---------------------------------------------------------------------

// TraceLog records simulation timelines (sends, receives, spawns, switches,
// charges) for the renderers in the trace package.
type TraceLog = trace.Log

// NewTraceLog creates an event log holding at most limit events (0 = default).
func NewTraceLog(limit int) *TraceLog { return trace.New(limit) }

// AttachTrace installs the log as m's tracer; call before running.
func AttachTrace(m *Machine, l *TraceLog) { trace.Attach(m, l) }

// WriteTrace renders the log as Chrome trace-event JSON, loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing; returns the number of events written.
func WriteTrace(w io.Writer, l *TraceLog) (int, error) { return trace.WritePerfetto(w, l) }

// --- observability ---------------------------------------------------------------

// AcctSnapshot is a point-in-time copy of one scope's accounting: charged
// time per category plus the event counters. Since Machine is an alias,
// Machine.LocalStats, Machine.ClusterStats and Machine.Metrics are the
// public stats surface.
type AcctSnapshot = machine.Snapshot

// MergeAcct sums accounting snapshots, e.g. per-node into machine-wide.
func MergeAcct(snaps ...AcctSnapshot) AcctSnapshot { return machine.MergeSnapshots(snaps...) }

// ShardStats is one address space's contribution to the machine-wide stats
// report — on the net backend, the payload workers ship to the parent at
// quiesce.
type ShardStats = machine.ShardStats

// ClusterStats is the machine-wide stats report: every shard's contribution
// plus the merged totals (Machine.ClusterStats assembles it on the parent).
type ClusterStats = machine.ClusterStats

// MetricsSnapshot is a merged view of the wall-clock metrics registries:
// message-plane counters, queue-depth gauges, and log-bucketed latency
// histograms with p50/p99/p999. Live backends only; the simulator has no
// wall-clock story.
type MetricsSnapshot = metrics.Snapshot

// Accounting counter indices into AcctSnapshot.Counters, for asserting on
// merged totals without string matching.
const (
	CntMsgShort    = machine.CntMsgShort
	CntMsgBulk     = machine.CntMsgBulk
	CntHandlersRun = machine.CntHandlersRun
	CntRMI         = machine.CntRMI
)
