// Package metrics is the wall-clock observability registry of the live
// backends: atomic counters, gauges with high-water tracking, and
// log-bucketed latency histograms with percentile extraction.
//
// The design mirrors machine.Accounting — a closed enum of instruments in
// fixed arrays, so bumping one on the hot path is an indexed atomic add with
// no map lookup and no allocation — but where Accounting records *virtual*
// time charged by the cost model, this registry records *wall-clock*
// behavior: real RMI round-trip latency, real queue depths, real batch
// sizes. The simulator has no use for it (its virtual time IS the model);
// the live and netlive backends create one Registry per node plus one per
// message plane, and every recording site is gated behind a nil check so a
// backend without metrics pays nothing.
//
// Snapshot/Merge mirror machine.Snapshot/MergeSnapshots: each shard of a
// multi-process machine snapshots its registries, ships them in a kStats
// frame, and shard 0 merges them into one machine-wide report. Following the
// Active Messages tradition, nothing here ever blocks or allocates on a
// recording path: Add, Set, and Observe are a handful of atomic operations.
package metrics

import (
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"
	"time"
)

// Ctr names one monotonic counter.
type Ctr int

const (
	// CtrNotifies counts pended notifies: arrival notifies that found the
	// destination's CPU busy and added to the live node's pending count for
	// the CPU's holder.
	CtrNotifies Ctr = iota
	// CtrNotifyBatches counts the times a CPU holder found its node's pending
	// count non-zero and ran the arrival once for all of it (CtrNotifies /
	// CtrNotifyBatches is the realized short-message batching factor).
	CtrNotifyBatches
	// CtrNotifyDirect counts arrival notifies whose arrival ran at once on
	// the goroutine that brought them, because the destination's CPU was free
	// (nothing pended, no hand-off).
	CtrNotifyDirect
	// CtrNotifyDropped counts arrival notifies dropped because they found the
	// destination's CPU busy when the run was already over.
	CtrNotifyDropped
	// CtrFramesOut / CtrBytesOut count cross-shard frames and payload bytes
	// shipped to peer shards (netlive writer side).
	CtrFramesOut
	CtrBytesOut
	// CtrFramesIn / CtrBytesIn count frames and payload bytes received from
	// peer shards (netlive reader side).
	CtrFramesIn
	CtrBytesIn
	// CtrShmFramesOut / CtrShmBytesOut count packet frames and record bytes
	// published into shared-memory shard rings (netlive producer side).
	CtrShmFramesOut
	CtrShmBytesOut
	// CtrShmFramesIn / CtrShmBytesIn count frames and record bytes consumed
	// from shared-memory shard rings (netlive consumer side).
	CtrShmFramesIn
	CtrShmBytesIn
	// CtrShmDoorbells counts doorbell frames sent to wake a parked ring
	// consumer (the slow path of the spin-then-park protocol).
	CtrShmDoorbells
	// CtrShmSpinWakes / CtrShmParkWakes classify how a waiting ring consumer
	// found new data: within its bounded spin (the reader's, or an idle
	// proc's), or only after parking (their ratio is how often the doorbell
	// path is actually needed).
	CtrShmSpinWakes
	CtrShmParkWakes
	// CtrShmFragsOut / CtrShmFragsIn count the fragment records a frame over
	// the ring's contiguity limit travels as. Such a frame still counts once
	// in CtrShmFramesOut/In, so frames keep meaning packets.
	CtrShmFragsOut
	CtrShmFragsIn
	// CtrLinkDropped counts frames dropped at a netlive shard link: queued
	// for or sent to a link that had already failed or closed.
	CtrLinkDropped
	// CtrShmFramesInProc / CtrShmFramesInReader split CtrShmFramesIn (their
	// sum) by who drained the ring: a node's own idle proc, polling before it
	// blocks, or the shard's ring reader goroutine, the consumer of last
	// resort, whose frames cost their destination a goroutine wake-up.
	CtrShmFramesInProc
	CtrShmFramesInReader
	// CtrIdlePolls / CtrIdleParks classify how a live proc that parked and
	// left its node idle, on a backend with links to poll, got its wake-up:
	// while it was still polling, or only after it had given up and blocked.
	CtrIdlePolls
	CtrIdleParks
	// CtrWaveFrames counts the frames of the end-of-run waves a shard sends,
	// the parent's probes and the workers' answers: on a healthy link, the
	// part of CtrFramesOut that is neither a packet nor a doorbell nor one of
	// the last control frames of a run.
	CtrWaveFrames
	numCtrs
)

var ctrNames = [numCtrs]string{
	"live.notifies", "live.notify.batches", "live.notify.direct", "live.notify.dropped",
	"net.frames.out", "net.bytes.out", "net.frames.in", "net.bytes.in",
	"shm.frames.out", "shm.bytes.out", "shm.frames.in", "shm.bytes.in",
	"shm.doorbells", "shm.wakes.spin", "shm.wakes.park",
	"shm.fragments.out", "shm.fragments.in", "net.link.dropped",
	"shm.frames.in.proc", "shm.frames.in.reader", "live.idle.polls", "live.idle.parks",
	"net.wave.frames",
}

// String returns the label used in reports.
func (c Ctr) String() string {
	if c < 0 || c >= numCtrs {
		return fmt.Sprintf("Ctr(%d)", int(c))
	}
	return ctrNames[c]
}

// Gge names one gauge (a sampled level with a high-water mark).
type Gge int

const (
	// GgeNotifyDepth is a live node's pending count, sampled by the holder
	// that takes it: its max is the deepest the count got, and it reads 0
	// once a holder has run the arrival.
	GgeNotifyDepth Gge = iota
	// GgePeerRingDepth is the depth of a peer shard's writer ring, sampled at
	// each cross-shard frame push (netlive message plane).
	GgePeerRingDepth
	// GgeShmRingDepth is the occupancy in bytes of a shared-memory shard
	// ring, sampled at each record publish (netlive shm producer side).
	GgeShmRingDepth
	numGges
)

var ggeNames = [numGges]string{"live.notify.depth", "net.peer.ring.depth", "shm.ring.depth"}

// String returns the label used in reports.
func (g Gge) String() string {
	if g < 0 || g >= numGges {
		return fmt.Sprintf("Gge(%d)", int(g))
	}
	return ggeNames[g]
}

// Hst names one log-bucketed histogram.
type Hst int

const (
	// HstRMILatency is the wall-clock round-trip of a remote RMI in
	// nanoseconds, send to reply-handled, recorded at the initiating node.
	HstRMILatency Hst = iota
	// HstPollBatch is the pending count a CPU holder swapped to zero each time
	// it ran its node's arrival for it (a size distribution, not a duration).
	HstPollBatch
	// HstWriterStall is the wall-clock nanoseconds a cross-shard frame
	// waited in the peer writer's ring before reaching the socket — how far
	// behind the wire is the sender running.
	HstWriterStall
	numHsts
)

var hstNames = [numHsts]string{"rmi.latency.ns", "live.poll.batch", "net.writer.stall.ns"}

// String returns the label used in reports.
func (h Hst) String() string {
	if h < 0 || h >= numHsts {
		return fmt.Sprintf("Hst(%d)", int(h))
	}
	return hstNames[h]
}

// histBuckets is the bucket count: bucket i holds values v with
// bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i). 64 buckets cover every
// non-negative int64.
const histBuckets = 65

// hist is one live histogram: power-of-two buckets plus sum and max, all
// atomic. A single Observe is three atomic adds and a CAS-max.
type hist struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

func (h *hist) observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	raise(&h.max, v)
}

// raise lifts a high-water mark to at least v. It retries only while v is
// still above the mark, which another writer has then just raised.
func raise(mark *atomic.Int64, v int64) {
	for cur := mark.Load(); v > cur && !mark.CompareAndSwap(cur, v); cur = mark.Load() {
	}
}

// gauge is one live gauge: the last sampled level and its high-water mark.
type gauge struct {
	last atomic.Int64
	max  atomic.Int64
}

func (g *gauge) set(v int64) {
	g.last.Store(v)
	raise(&g.max, v)
}

// Registry is one recording domain — a node, or a backend's message plane.
// All methods are safe for concurrent use and allocation-free.
type Registry struct {
	ctrs [numCtrs]atomic.Int64
	gges [numGges]gauge
	hsts [numHsts]hist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Add bumps counter c by n.
func (r *Registry) Add(c Ctr, n int64) { r.ctrs[c].Add(n) }

// Counter reads counter c.
func (r *Registry) Counter(c Ctr) int64 { return r.ctrs[c].Load() }

// Set samples gauge g at level v, updating its high-water mark.
func (r *Registry) Set(g Gge, v int64) { r.gges[g].set(v) }

// Observe records v into histogram h. Durations are recorded as nanoseconds
// (ObserveDur); size distributions as plain counts.
func (r *Registry) Observe(h Hst, v int64) { r.hsts[h].observe(v) }

// ObserveDur records a wall-clock duration into histogram h.
func (r *Registry) ObserveDur(h Hst, d time.Duration) { r.hsts[h].observe(int64(d)) }

// Snapshot captures the registry's current state. Safe to call while
// recorders run; each instrument is read atomically (the snapshot as a whole
// is not a consistent cut, which merged reporting does not need).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	for i := range r.ctrs {
		s.Counters[i] = r.ctrs[i].Load()
	}
	for i := range r.gges {
		s.Gauges[i] = GaugeSnap{Last: r.gges[i].last.Load(), Max: r.gges[i].max.Load()}
	}
	for i := range r.hsts {
		h := &r.hsts[i]
		hs := &s.Hists[i]
		hs.Count = h.count.Load()
		hs.Sum = h.sum.Load()
		hs.Max = h.max.Load()
		for b := range h.buckets {
			hs.Buckets[b] = h.buckets[b].Load()
		}
	}
	return s
}

// GaugeSnap is the snapshot of one gauge.
type GaugeSnap struct {
	Last int64 `json:"last"`
	Max  int64 `json:"max"`
}

// HistSnap is the snapshot of one histogram: the raw log buckets travel so a
// merged snapshot can still answer quantile queries.
type HistSnap struct {
	Count   int64              `json:"count"`
	Sum     int64              `json:"sum"`
	Max     int64              `json:"max"`
	Buckets [histBuckets]int64 `json:"buckets"`
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the upper
// edge of the log bucket the quantile falls in, clamped to the observed
// maximum. Zero when the histogram is empty.
func (h HistSnap) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	rank := int64(q*float64(h.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, n := range h.Buckets {
		seen += n
		if seen >= rank {
			// Bucket i holds values < 2^i.
			upper := int64(1)<<uint(i) - 1
			if upper > h.Max || upper < 0 {
				upper = h.Max
			}
			return upper
		}
	}
	return h.Max
}

// Sub returns the observations recorded since prev was taken: per-bucket,
// count and sum differences between two snapshots of the same histogram
// (prev must be the earlier one). Max stays the cumulative maximum — the
// log buckets cannot recover the window's own max, so windowed quantiles
// clamp against the overall max, a safe upper bound.
func (h HistSnap) Sub(prev HistSnap) HistSnap {
	out := HistSnap{Count: h.Count - prev.Count, Sum: h.Sum - prev.Sum, Max: h.Max}
	for i := range out.Buckets {
		out.Buckets[i] = h.Buckets[i] - prev.Buckets[i]
	}
	return out
}

// P50, P99 and P999 are the report percentiles.
func (h HistSnap) P50() int64  { return h.Quantile(0.50) }
func (h HistSnap) P99() int64  { return h.Quantile(0.99) }
func (h HistSnap) P999() int64 { return h.Quantile(0.999) }

// Mean returns the arithmetic mean of the observations (0 when empty).
func (h HistSnap) Mean() int64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / h.Count
}

// Snapshot is a point-in-time copy of a Registry, mirroring
// machine.Snapshot: plain data, JSON-serializable for the kStats wire
// payload, mergeable across nodes and shards.
type Snapshot struct {
	Counters [numCtrs]int64     `json:"counters"`
	Gauges   [numGges]GaugeSnap `json:"gauges"`
	Hists    [numHsts]HistSnap  `json:"hists"`
}

// Counter reads counter c from the snapshot.
func (s Snapshot) Counter(c Ctr) int64 { return s.Counters[c] }

// Gauge reads gauge g from the snapshot.
func (s Snapshot) Gauge(g Gge) GaugeSnap { return s.Gauges[g] }

// Hist reads histogram h from the snapshot.
func (s Snapshot) Hist(h Hst) HistSnap { return s.Hists[h] }

// Merge sums counters and histogram buckets and combines gauges across
// snapshots — the machine-wide view from per-node (or per-shard) parts.
// A gauge's Last and Max each take the largest part: the deepest any single
// queue stood at snapshot time, and the deepest any ever got, so a merged
// gauge never reads last above max.
func Merge(snaps ...Snapshot) Snapshot {
	var out Snapshot
	for _, s := range snaps {
		for i, v := range s.Counters {
			out.Counters[i] += v
		}
		for i, g := range s.Gauges {
			if g.Last > out.Gauges[i].Last {
				out.Gauges[i].Last = g.Last
			}
			if g.Max > out.Gauges[i].Max {
				out.Gauges[i].Max = g.Max
			}
		}
		for i, h := range s.Hists {
			o := &out.Hists[i]
			o.Count += h.Count
			o.Sum += h.Sum
			if h.Max > o.Max {
				o.Max = h.Max
			}
			for b, n := range h.Buckets {
				o.Buckets[b] += n
			}
		}
	}
	return out
}

// Outside names the first field of s that is negative or above limit, ""
// when there is none: every field counts or measures something that is never
// below zero, so a negative one was not recorded but made up.
func (s Snapshot) Outside(limit int64) string {
	out := func(v int64) bool { return v < 0 || v > limit }
	for i, v := range s.Counters {
		if out(v) {
			return Ctr(i).String()
		}
	}
	for i, g := range s.Gauges {
		if out(g.Last) || out(g.Max) {
			return Gge(i).String()
		}
	}
	for i, h := range s.Hists {
		if out(h.Count) || out(h.Sum) || out(h.Max) || slices.ContainsFunc(h.Buckets[:], out) {
			return Hst(i).String()
		}
	}
	return ""
}

// Counters lists all counter IDs in declaration order (report iteration).
func Counters() []Ctr {
	out := make([]Ctr, numCtrs)
	for i := range out {
		out[i] = Ctr(i)
	}
	return out
}

// Gauges lists all gauge IDs in declaration order.
func Gauges() []Gge {
	out := make([]Gge, numGges)
	for i := range out {
		out[i] = Gge(i)
	}
	return out
}

// Hists lists all histogram IDs in declaration order.
func Hists() []Hst {
	out := make([]Hst, numHsts)
	for i := range out {
		out[i] = Hst(i)
	}
	return out
}
