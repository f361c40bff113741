package machine

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSP1997Calibration(t *testing.T) {
	cfg := SP1997()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// The three headline constants of the paper's substrate.
	if got := cfg.ShortRTT(); got != 55*time.Microsecond {
		t.Errorf("AM 0-word RTT = %v, want 55µs", got)
	}
	if got := 2 * (cfg.MPLOverhead + cfg.WireLatency + cfg.MPLOverhead); got != 88*time.Microsecond {
		t.Errorf("MPL RTT = %v, want 88µs", got)
	}
	if cfg.ThreadCreate != 5*time.Microsecond || cfg.ContextSwitch != 6*time.Microsecond ||
		cfg.SyncOp != 400*time.Nanosecond {
		t.Errorf("thread costs off: %v %v %v", cfg.ThreadCreate, cfg.ContextSwitch, cfg.SyncOp)
	}
}

func TestBulkRTTExceedsShort(t *testing.T) {
	cfg := SP1997()
	if cfg.BulkRTT(0, 0) <= cfg.ShortRTT() {
		t.Error("zero-payload bulk RTT not above short RTT")
	}
	// Monotone in payload.
	prev := cfg.BulkRTT(0, 0)
	for _, n := range []int{8, 160, 2048, 65536} {
		cur := cfg.BulkRTT(n, 0)
		if cur <= prev {
			t.Errorf("bulk RTT not monotone at %d bytes", n)
		}
		prev = cur
	}
}

func TestValidateRejectsNegative(t *testing.T) {
	cfg := SP1997()
	cfg.SyncOp = -time.Nanosecond
	if cfg.Validate() == nil {
		t.Error("negative cost accepted")
	}
}

func TestNodeSendDelivers(t *testing.T) {
	m := New(SP1997(), 2)
	arrivals := 0
	m.Node(1).OnArrival = func() { arrivals++ }
	m.Node(0).Send(1, 0, 48, "hello")
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if arrivals != 1 {
		t.Fatalf("arrivals = %d", arrivals)
	}
	pkt, ok := m.Node(1).PopInbox()
	if !ok || pkt.Payload != "hello" {
		t.Fatalf("bad packet %+v ok=%v", pkt, ok)
	}
	if m.Eng.Now() != SP1997().WireLatency {
		t.Fatalf("delivery at %v, want wire latency %v", m.Eng.Now(), SP1997().WireLatency)
	}
}

func TestSendFIFOPerPair(t *testing.T) {
	m := New(SP1997(), 2)
	for i := 0; i < 10; i++ {
		m.Node(0).Send(1, 0, 48, i)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		pkt, ok := m.Node(1).PopInbox()
		if !ok || pkt.Payload != i {
			t.Fatalf("packet %d out of order: %+v", i, pkt)
		}
	}
}

func TestLoopbackImmediate(t *testing.T) {
	m := New(SP1997(), 1)
	m.Node(0).Loopback(8, 42)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Eng.Now() != 0 {
		t.Fatalf("loopback consumed wire time %v", m.Eng.Now())
	}
	if pkt, ok := m.Node(0).PopInbox(); !ok || pkt.Payload != 42 {
		t.Fatal("loopback packet lost")
	}
}

func TestAccountingBucketsAndCounters(t *testing.T) {
	a := newAccounting()
	a.Add(CatCPU, 3*time.Microsecond)
	a.Add(CatNet, time.Microsecond)
	a.Add(CatCPU, 2*time.Microsecond)
	a.Count(CntPolls, 5)
	if a.Get(CatCPU) != 5*time.Microsecond {
		t.Fatalf("cpu bucket %v", a.Get(CatCPU))
	}
	if a.Counter(CntPolls) != 5 {
		t.Fatalf("counter %d", a.Counter(CntPolls))
	}
	snap := a.Snapshot()
	a.Add(CatCPU, 10*time.Microsecond)
	a.Count(CntPolls, 2)
	d := a.Delta(snap)
	if d.Get(CatCPU) != 10*time.Microsecond || d.Counters[CntPolls] != 2 {
		t.Fatalf("delta wrong: %v", d)
	}
	if d.Get(CatNet) != 0 {
		t.Fatalf("untouched bucket in delta: %v", d.Get(CatNet))
	}
}

func TestMergeSnapshots(t *testing.T) {
	a, b := newAccounting(), newAccounting()
	a.Add(CatRuntime, time.Microsecond)
	a.Count(CntRMI, 1)
	b.Add(CatRuntime, 2*time.Microsecond)
	b.Count(CntRMI, 2)
	b.Count(CntPolls, 7)
	m := MergeSnapshots(a.Snapshot(), b.Snapshot())
	if m.Get(CatRuntime) != 3*time.Microsecond || m.Counters[CntRMI] != 3 || m.Counters[CntPolls] != 7 {
		t.Fatalf("merge wrong: %v", m)
	}
	if m.Busy() != 3*time.Microsecond {
		t.Fatalf("busy %v", m.Busy())
	}
}

// Property: Delta(snapshot) + snapshot == current, for random sequences.
func TestSnapshotDeltaProperty(t *testing.T) {
	f := func(adds []uint8) bool {
		a := newAccounting()
		for i, v := range adds {
			a.Add(Category(int(v)%int(numCategories)), time.Duration(v)*time.Nanosecond)
			if i == len(adds)/2 {
				snap := a.Snapshot()
				defer func() { _ = snap }()
			}
		}
		snap := a.Snapshot()
		more := time.Duration(0)
		for _, v := range adds {
			a.Add(CatCPU, time.Duration(v)*time.Nanosecond)
			more += time.Duration(v) * time.Nanosecond
		}
		return a.Delta(snap).Get(CatCPU) == more
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCategoryStrings(t *testing.T) {
	for _, c := range Categories() {
		if c.String() == "" || c.String()[0] == 'C' {
			t.Errorf("category %d renders as %q", int(c), c.String())
		}
	}
}
