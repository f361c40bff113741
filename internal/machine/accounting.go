package machine

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Category labels where a node's virtual time went. The set mirrors the
// breakdown bars of Figures 5 and 6 in the paper: cpu, net, thread mgmt,
// thread sync, and (CC++) runtime.
type Category int

const (
	// CatCPU is application computation (flops, local data structure work).
	CatCPU Category = iota
	// CatNet is time spent in the message layer: send/receive overheads,
	// bulk setup, and per-byte occupancy.
	CatNet
	// CatThreadMgmt is thread creation and context switching.
	CatThreadMgmt
	// CatThreadSync is locks, unlocks, signals, and sync-variable operations.
	CatThreadSync
	// CatRuntime is language-runtime overhead: marshalling, stub lookup,
	// buffer management, global-pointer bookkeeping.
	CatRuntime
	numCategories
)

// String returns the label used in reports.
//
//mpmd:coldpath report/trace formatter; every hot-path caller is gated on tracing being enabled
func (c Category) String() string {
	switch c {
	case CatCPU:
		return "cpu"
	case CatNet:
		return "net"
	case CatThreadMgmt:
		return "thread-mgmt"
	case CatThreadSync:
		return "thread-sync"
	case CatRuntime:
		return "runtime"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Categories lists all categories in report order.
func Categories() []Category {
	return []Category{CatNet, CatCPU, CatThreadMgmt, CatThreadSync, CatRuntime}
}

// Cnt names one instrumentation counter. The set is closed and the counters
// live in a fixed array, so bumping one on the runtime's hot path is an
// indexed add — no map hashing per message (the string-keyed map this
// replaced was a measurable slice of warm-RMI wall time on the live
// backend). Layers bump these via Node.Acct.Count; the benchmark harness
// reads them to reconstruct the paper's "Yield / Create / Sync" columns and
// message statistics. They are the runtime's only tally, and the end of a
// run reads four of them (messages sent, CntMsgShort+CntMsgBulk, against
// handled, CntHandlersRun; threads made runnable, CntThreadReadied, against
// blocked or exited, CntThreadParked), so a counter is never reset: it only
// grows.
type Cnt int

const (
	CntThreadCreate Cnt = iota
	CntContextSwitch
	CntSyncOp
	CntLockContended
	// CntThreadReadied counts the times a thread was made runnable, and
	// CntThreadParked the times one blocked or exited: equal when none of
	// the node's threads can run. An interrupt (CntInterrupts) counts once in
	// each.
	CntThreadReadied
	CntThreadParked
	CntInterrupts
	CntMsgShort
	CntMsgBulk
	CntBytesSent
	CntPolls
	CntHandlersRun
	CntRMI
	CntRMICold
	CntStubHit
	CntStubMiss
	CntBufReuse
	CntBufAlloc
	CntRemoteRead
	CntRemoteWrite
	CntLocalDeref
	numCounters
)

// cntNames are the report labels, in declaration order.
var cntNames = [numCounters]string{
	"thread.create", "thread.switch", "thread.sync", "thread.lock.contended",
	"thread.readied", "thread.parked", "thread.interrupts",
	"am.msg.short", "am.msg.bulk", "am.bytes.sent", "am.polls", "am.handlers",
	"core.rmi", "core.rmi.cold",
	"tham.stub.hit", "tham.stub.miss", "tham.buf.reuse", "tham.buf.alloc",
	"gp.remote.read", "gp.remote.write", "gp.local.deref",
}

// String returns the label used in reports.
func (c Cnt) String() string {
	if c < 0 || c >= numCounters {
		return fmt.Sprintf("Cnt(%d)", int(c))
	}
	return cntNames[c]
}

// CounterSet holds one value per counter, indexed by Cnt. It marshals as a
// name-keyed JSON object (non-zero entries only) so reports stay readable.
type CounterSet [numCounters]int64

// MarshalJSON implements json.Marshaler.
func (s CounterSet) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for c, v := range s {
		if v == 0 {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%q:%d", Cnt(c).String(), v)
	}
	b.WriteByte('}')
	return []byte(b.String()), nil
}

// cntByName maps report labels back to counter indices for UnmarshalJSON.
var cntByName = func() map[string]Cnt {
	m := make(map[string]Cnt, numCounters)
	for i, n := range cntNames {
		m[n] = Cnt(i)
	}
	return m
}()

// UnmarshalJSON implements json.Unmarshaler, inverting MarshalJSON's
// name-keyed encoding. Unknown names are ignored (a newer shard talking to an
// older parent just loses counters it does not know, rather than failing the
// whole stats merge). Counters absent from the object are zero.
func (s *CounterSet) UnmarshalJSON(b []byte) error {
	var named map[string]int64
	if err := json.Unmarshal(b, &named); err != nil {
		return err
	}
	*s = CounterSet{}
	for name, v := range named {
		if c, ok := cntByName[name]; ok {
			s[c] = v
		}
	}
	return nil
}

// Accounting accumulates per-category virtual time and event counters for
// one node. Writers are the node's own execution context (one logical thread
// at a time), but every cell is an atomic so a concurrent stats reader —
// LocalStats sampled while the nodes run — can snapshot it without a data
// race and without putting a lock on the charge path.
type Accounting struct {
	buckets  [numCategories]atomic.Int64
	counters [numCounters]atomic.Int64
}

func newAccounting() *Accounting { return &Accounting{} }

// Add charges d to category c.
//
//mpmd:hotpath
func (a *Accounting) Add(c Category, d time.Duration) {
	if c < 0 || c >= numCategories {
		panic("machine: bad category")
	}
	a.buckets[c].Add(int64(d))
}

// Get returns the accumulated time in category c.
func (a *Accounting) Get(c Category) time.Duration { return time.Duration(a.buckets[c].Load()) }

// Count adds n to counter c.
//
//mpmd:hotpath
func (a *Accounting) Count(c Cnt, n int64) { a.counters[c].Add(n) }

// Counter returns the value of counter c.
func (a *Accounting) Counter(c Cnt) int64 { return a.counters[c].Load() }

// Counters returns a copy of all counters.
func (a *Accounting) Counters() CounterSet {
	var s CounterSet
	for i := range a.counters {
		s[i] = a.counters[i].Load()
	}
	return s
}

// Snapshot is a point-in-time copy of an Accounting, used to compute deltas
// over a measured region.
type Snapshot struct {
	Buckets  [numCategories]time.Duration `json:"buckets"`
	Counters CounterSet                   `json:"counters"`
}

// Snapshot captures the current state.
func (a *Accounting) Snapshot() Snapshot {
	var s Snapshot
	for i := range a.buckets {
		s.Buckets[i] = time.Duration(a.buckets[i].Load())
	}
	s.Counters = a.Counters()
	return s
}

// Delta returns a snapshot holding the difference now-minus-then.
func (a *Accounting) Delta(then Snapshot) Snapshot {
	d := a.Snapshot()
	for i := range d.Buckets {
		d.Buckets[i] -= then.Buckets[i]
	}
	for i := range d.Counters {
		d.Counters[i] -= then.Counters[i]
	}
	return d
}

// Get returns the time in category c recorded by the snapshot.
func (s Snapshot) Get(c Category) time.Duration { return s.Buckets[c] }

// Busy returns the sum of all category buckets.
func (s Snapshot) Busy() time.Duration {
	var t time.Duration
	for _, b := range s.Buckets {
		t += b
	}
	return t
}

// String formats the snapshot for debugging.
func (s Snapshot) String() string {
	var b strings.Builder
	for _, c := range Categories() {
		fmt.Fprintf(&b, "%s=%v ", c, s.Buckets[c])
	}
	for c, v := range s.Counters {
		if v != 0 {
			fmt.Fprintf(&b, "%s=%d ", Cnt(c), v)
		}
	}
	return strings.TrimSpace(b.String())
}

// outside names the first charged-time bucket or counter of s that is
// negative or above limit, "" when there is none: neither is ever charged or
// counted below zero.
func (s Snapshot) outside(limit int64) string {
	for i, b := range s.Buckets {
		if b < 0 || int64(b) > limit {
			return Category(i).String()
		}
	}
	for i, v := range s.Counters {
		if v < 0 || v > limit {
			return Cnt(i).String()
		}
	}
	return ""
}

// MergeSnapshots sums per-category times and counters across nodes, e.g. to
// build a whole-machine breakdown.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	out := Snapshot{}
	for _, s := range snaps {
		for i, b := range s.Buckets {
			out.Buckets[i] += b
		}
		for i, v := range s.Counters {
			out.Counters[i] += v
		}
	}
	return out
}
