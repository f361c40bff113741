// Package metrics is the wall-clock observability registry of the live
// backends: atomic counters, high-water-mark gauges, and log-bucketed
// latency histograms with percentile extraction.
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
// recording path: Add, Raise, and Observe are a handful of atomic operations,
// and the registry keeps nothing that another of its values already says (a
// gauge is only its high-water mark, a level being a difference of counters;
// a histogram's count is the sum of its buckets, taken at Snapshot).
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
	// CtrShmBytesIn counts record bytes consumed from shared-memory shard
	// rings (netlive consumer side); the frames consumed are
	// CtrShmFramesInProc + CtrShmFramesInReader.
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
	// in CtrShmFramesOut and once in the consumer's split, so frames keep
	// meaning packets.
	CtrShmFragsOut
	CtrShmFragsIn
	// CtrLinkDropped counts frames dropped at a netlive shard link: queued
	// for or sent to a link that had already failed or closed.
	CtrLinkDropped
	// CtrShmFramesInProc / CtrShmFramesInReader count the frames consumed
	// from shared-memory shard rings (their sum) by who drained the ring: a
	// node's own idle proc, polling before it blocks, or the shard's ring
	// reader goroutine, the consumer of last resort, whose frames cost their
	// destination a goroutine wake-up.
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
	"shm.frames.out", "shm.bytes.out", "shm.bytes.in",
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

// Gge names one gauge: the high-water mark of a sampled level. The level
// itself is not kept; where a report needs one, it is a difference of
// counters already kept.
type Gge int

const (
	// GgeNotifyDepth is the deepest a live node's pending count got, sampled
	// by the holder that takes it.
	GgeNotifyDepth Gge = iota
	// GgePeerRingDepth is the deepest a peer shard's writer ring got, sampled
	// at each cross-shard frame push (netlive message plane).
	GgePeerRingDepth
	// GgeShmRingDepth is the highest occupancy in bytes of a shared-memory
	// shard ring, sampled at each record publish (netlive shm producer side).
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
// atomic. A single Observe is two atomic adds and a load (a CAS too while it
// raises the max). The count is not kept: Snapshot sums the buckets.
type hist struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

func (h *hist) observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.sum.Add(v)
	raise(&h.max, v)
}

// raise lifts a high-water mark to at least v. It retries only while v is
// still above the mark, which another writer has then just raised.
func raise(mark *atomic.Int64, v int64) {
	for cur := mark.Load(); v > cur && !mark.CompareAndSwap(cur, v); cur = mark.Load() {
	}
}

// Registry is one recording domain — a node, or a backend's message plane.
// All methods are safe for concurrent use and allocation-free.
type Registry struct {
	ctrs [numCtrs]atomic.Int64
	gges [numGges]atomic.Int64
	hsts [numHsts]hist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Add bumps counter c by n.
func (r *Registry) Add(c Ctr, n int64) { r.ctrs[c].Add(n) }

// Counter reads counter c.
func (r *Registry) Counter(c Ctr) int64 { return r.ctrs[c].Load() }

// Raise samples gauge g at level v: its high-water mark becomes at least v.
func (r *Registry) Raise(g Gge, v int64) { raise(&r.gges[g], v) }

// Observe records v into histogram h. Durations are recorded as nanoseconds
// (ObserveDur); size distributions as plain counts.
func (r *Registry) Observe(h Hst, v int64) { r.hsts[h].observe(v) }

// ObserveDur records a wall-clock duration into histogram h.
func (r *Registry) ObserveDur(h Hst, d time.Duration) { r.hsts[h].observe(int64(d)) }

// Snapshot captures the registry's current state. Safe to call while
// recorders run; each instrument is read atomically (the snapshot as a whole
// is not a consistent cut, which merged reporting does not need). A
// histogram's Count is the sum of the buckets this snapshot read, so it never
// disagrees with them.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	for i := range r.ctrs {
		s.Counters[i] = r.ctrs[i].Load()
	}
	for i := range r.gges {
		s.Gauges[i] = GaugeSnap{Max: r.gges[i].Load()}
	}
	for i := range r.hsts {
		h := &r.hsts[i]
		hs := &s.Hists[i]
		hs.Sum = h.sum.Load()
		hs.Max = h.max.Load()
		for b := range h.buckets {
			hs.Buckets[b] = h.buckets[b].Load()
			hs.Count += hs.Buckets[b]
		}
	}
	return s
}

// GaugeSnap is the snapshot of one gauge: its high-water mark.
type GaugeSnap struct {
	Max int64 `json:"max"`
}

// HistSnap is the snapshot of one histogram: the raw log buckets travel so a
// merged snapshot can still answer quantile queries. Count is the sum of
// Buckets.
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

// Merge sums counters and histogram buckets and takes the largest part of
// each gauge across snapshots — the machine-wide view from per-node (or
// per-shard) parts: a merged gauge is the deepest any queue ever got.
func Merge(snaps ...Snapshot) Snapshot {
	var out Snapshot
	for _, s := range snaps {
		for i, v := range s.Counters {
			out.Counters[i] += v
		}
		for i, g := range s.Gauges {
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
		if out(g.Max) {
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

// Miscounted names the first histogram of s whose count is not the sum of
// its buckets, "" when there is none: Snapshot takes the count from the
// buckets, so a snapshot where they differ was not recorded but made up. It
// holds s to what Outside already checked, every field non-negative, and so
// stops as soon as the buckets pass the count: the running difference then
// cannot overflow.
func (s Snapshot) Miscounted() string {
	for i, h := range s.Hists {
		rest := h.Count
		for _, n := range h.Buckets {
			if rest -= n; rest < 0 {
				break
			}
		}
		if rest != 0 {
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
