package metrics

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	r.Add(CtrNotifies, 3)
	r.Add(CtrNotifies, 2)
	r.Raise(GgeNotifyDepth, 7)
	r.Raise(GgeNotifyDepth, 4)
	s := r.Snapshot()
	if got := s.Counter(CtrNotifies); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if g := s.Gauge(GgeNotifyDepth); g.Max != 7 {
		t.Errorf("gauge = %+v, want max=7", g)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	// 1000 observations: 900 at ~1µs, 90 at ~16µs, 9 at ~1ms, 1 at 50ms.
	for i := 0; i < 900; i++ {
		r.ObserveDur(HstRMILatency, time.Microsecond)
	}
	for i := 0; i < 90; i++ {
		r.ObserveDur(HstRMILatency, 16*time.Microsecond)
	}
	for i := 0; i < 9; i++ {
		r.ObserveDur(HstRMILatency, time.Millisecond)
	}
	r.ObserveDur(HstRMILatency, 50*time.Millisecond)
	h := r.Snapshot().Hist(HstRMILatency)
	if h.Count != 1000 {
		t.Fatalf("count = %d, want 1000", h.Count)
	}
	// Log buckets give upper bounds: p50 lands in the ~1µs bucket
	// ([1024,2048)), p99 in the ~16µs bucket, p999 in the ~1ms bucket.
	if p := h.P50(); p < 1000 || p > 2048 {
		t.Errorf("p50 = %d, want within the ~1µs bucket", p)
	}
	if p := h.P99(); p < 16000 || p > 32768 {
		t.Errorf("p99 = %d, want within the ~16µs bucket", p)
	}
	if p := h.P999(); p < 1_000_000 || p > 2_097_152 {
		t.Errorf("p999 = %d, want within the ~1ms bucket", p)
	}
	if h.Max != int64(50*time.Millisecond) {
		t.Errorf("max = %d, want %d", h.Max, 50*time.Millisecond)
	}
	if h.Mean() <= 0 {
		t.Errorf("mean = %d, want positive", h.Mean())
	}
	// The tail quantile never exceeds the observed max.
	if q := h.Quantile(1.0); q != h.Max {
		t.Errorf("q100 = %d, want max %d", q, h.Max)
	}
}

func TestEmptyHistogram(t *testing.T) {
	var h HistSnap
	if h.P50() != 0 || h.P999() != 0 || h.Mean() != 0 {
		t.Errorf("empty histogram quantiles non-zero: %d %d %d", h.P50(), h.P999(), h.Mean())
	}
}

func TestMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Add(CtrFramesOut, 10)
	b.Add(CtrFramesOut, 5)
	a.Raise(GgePeerRingDepth, 3)
	b.Raise(GgePeerRingDepth, 9)
	a.ObserveDur(HstWriterStall, time.Microsecond)
	b.ObserveDur(HstWriterStall, time.Millisecond)
	m := Merge(a.Snapshot(), b.Snapshot())
	if m.Counter(CtrFramesOut) != 15 {
		t.Errorf("merged counter = %d, want 15", m.Counter(CtrFramesOut))
	}
	if g := m.Gauge(GgePeerRingDepth); g.Max != 9 {
		t.Errorf("merged gauge = %+v, want max=9", g)
	}
	h := m.Hist(HstWriterStall)
	if h.Count != 2 || h.Max != int64(time.Millisecond) {
		t.Errorf("merged hist = count %d max %d", h.Count, h.Max)
	}
	// Merging preserves quantile answers: the merged p50 falls between the
	// two observations.
	if p := h.P50(); p < int64(time.Microsecond) || p > int64(2*time.Millisecond) {
		t.Errorf("merged p50 = %d out of range", p)
	}
}

// TestSnapshotJSONRoundTrip pins the kStats wire property: a snapshot
// marshalled by a worker shard and unmarshalled by the parent answers the
// same queries.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Add(CtrBytesIn, 4096)
	r.Raise(GgeNotifyDepth, 11)
	for i := 0; i < 100; i++ {
		r.ObserveDur(HstRMILatency, time.Duration(i+1)*time.Microsecond)
	}
	s := r.Snapshot()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter(CtrBytesIn) != 4096 || back.Gauge(GgeNotifyDepth).Max != 11 {
		t.Errorf("round trip lost counters/gauges: %+v", back)
	}
	if back.Hist(HstRMILatency).P99() != s.Hist(HstRMILatency).P99() {
		t.Errorf("round trip changed p99: %d vs %d",
			back.Hist(HstRMILatency).P99(), s.Hist(HstRMILatency).P99())
	}
}

// TestConcurrentRecording exercises every instrument from many goroutines so
// the race detector sees the recording paths (CI runs this package -race),
// and holds every snapshot taken meanwhile to a count that is the sum of its
// buckets.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers, each = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Add(CtrNotifies, 1)
				r.Raise(GgeNotifyDepth, int64(i))
				r.Observe(HstPollBatch, int64(i%128))
				if i%100 == 0 {
					if h := r.Snapshot().Miscounted(); h != "" {
						t.Errorf("a snapshot taken while recording has %s's count apart from its buckets", h)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counter(CtrNotifies) != workers*each {
		t.Errorf("counter = %d, want %d", s.Counter(CtrNotifies), workers*each)
	}
	if s.Hist(HstPollBatch).Count != workers*each {
		t.Errorf("hist count = %d, want %d", s.Hist(HstPollBatch).Count, workers*each)
	}
	if s.Gauge(GgeNotifyDepth).Max != each-1 {
		t.Errorf("gauge max = %d, want %d", s.Gauge(GgeNotifyDepth).Max, each-1)
	}
}

// TestRecordingAllocFree pins the hot-path contract: recording into a
// registry allocates nothing.
func TestRecordingAllocFree(t *testing.T) {
	r := NewRegistry()
	allocs := testing.AllocsPerRun(1000, func() {
		r.Add(CtrNotifies, 1)
		r.Raise(GgeNotifyDepth, 5)
		r.ObserveDur(HstRMILatency, 3800*time.Nanosecond)
	})
	if allocs != 0 {
		t.Errorf("recording allocates %.1f/op, want 0", allocs)
	}
}

func TestNames(t *testing.T) {
	for _, c := range Counters() {
		if c.String() == "" {
			t.Errorf("counter %d has no name", c)
		}
	}
	for _, g := range Gauges() {
		if g.String() == "" {
			t.Errorf("gauge %d has no name", g)
		}
	}
	for _, h := range Hists() {
		if h.String() == "" {
			t.Errorf("hist %d has no name", h)
		}
	}
}
