package splitc

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/machine"
	"repro/internal/transport/live"
)

// on shares part as an array held by processor pc alone.
func on(w *World, pc int, part []float64) Seg {
	parts := make([][]float64, w.Machine().NumNodes())
	parts[pc] = part
	return w.Share(parts)
}

func TestReadWriteRemote(t *testing.T) {
	w := New(machine.New(machine.SP1997(), 2))
	vals := []float64{1.5, 0} // vals[i] lives on node i
	seg := w.Share([][]float64{vals[:1], vals[1:]})
	var got float64
	err := w.Run(func(p *Proc) {
		switch p.MyPC() {
		case 0:
			p.Write(GPF{PC: 1, Seg: seg}, 2.25)
			got = p.Read(GPF{PC: 1, Seg: seg})
		case 1:
			// Node 1 just needs to be reachable; its main returns and the
			// poll-on-idle machinery services node 0's requests... but with
			// single-threaded SPMD it must stay alive until node 0 is done,
			// which the barrier ensures.
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2.25 || vals[1] != 2.25 {
		t.Fatalf("got=%v vals[1]=%v", got, vals[1])
	}
}

func TestLocalAccessFreeAndDirect(t *testing.T) {
	w := New(machine.New(machine.SP1997(), 1))
	x := []float64{7.5}
	seg := on(w, 0, x)
	var got float64
	err := w.Run(func(p *Proc) {
		got = p.Read(GPF{PC: 0, Seg: seg})
		p.Write(GPF{PC: 0, Seg: seg}, 8.5)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 7.5 || x[0] != 8.5 {
		t.Fatalf("got=%v x=%v", got, x[0])
	}
	if w.Machine().Eng.Now() != 0 {
		t.Fatalf("local accesses consumed %v", w.Machine().Eng.Now())
	}
	if n := w.Machine().Node(0).Acct.Counter(machine.CntLocalDeref); n != 2 {
		t.Fatalf("local derefs = %d", n)
	}
}

func TestBlockingReadLatency(t *testing.T) {
	// GP read = short request + short reply + issue/complete runtime costs.
	w := New(machine.New(machine.SP1997(), 2))
	x := on(w, 1, []float64{3})
	var elapsed time.Duration
	err := w.Run(func(p *Proc) {
		if p.MyPC() == 0 {
			start := p.T.Now()
			_ = p.Read(GPF{PC: 1, Seg: x})
			elapsed = time.Duration(p.T.Now() - start)
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.SP1997()
	want := cfg.ShortRTT() + issueCost + completeCost // 55 + 4 = 59 µs
	if elapsed != want {
		t.Fatalf("blocking read took %v, want %v", elapsed, want)
	}
}

func TestSplitPhaseGetOverlap(t *testing.T) {
	// 20 pipelined gets must take far less than 20 blocking reads: the wire
	// latency overlaps, only per-message overheads serialize.
	const n = 20
	w := New(machine.New(machine.SP1997(), 2))
	remote := make([]float64, n)
	for i := range remote {
		remote[i] = float64(i) * 1.25
	}
	local := make([]float64, n)
	seg := on(w, 1, remote)
	var elapsed time.Duration
	err := w.Run(func(p *Proc) {
		if p.MyPC() == 0 {
			start := p.T.Now()
			for i := 0; i < n; i++ {
				p.Get(&local[i], GPF{PC: 1, Seg: seg, Off: i})
			}
			p.Sync()
			elapsed = time.Duration(p.T.Now() - start)
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range local {
		if local[i] != remote[i] {
			t.Fatalf("local[%d]=%v want %v", i, local[i], remote[i])
		}
	}
	blocking := time.Duration(n) * (machine.SP1997().ShortRTT() + issueCost + completeCost)
	if elapsed >= blocking/2 {
		t.Fatalf("prefetch did not overlap: %v vs %v blocking", elapsed, blocking)
	}
	// Paper: amortized ~12 µs per element for Split-C prefetch.
	per := elapsed / n
	if per < 5*time.Microsecond || per > 25*time.Microsecond {
		t.Fatalf("per-element prefetch %v outside plausible band", per)
	}
}

func TestPutAndSync(t *testing.T) {
	w := New(machine.New(machine.SP1997(), 2))
	remote := make([]float64, 10)
	seg := on(w, 1, remote)
	err := w.Run(func(p *Proc) {
		if p.MyPC() == 0 {
			for i := range remote {
				p.Put(GPF{PC: 1, Seg: seg, Off: i}, float64(i))
			}
			p.Sync()
			if p.Outstanding() != 0 {
				t.Error("outstanding after sync")
			}
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range remote {
		if v != float64(i) {
			t.Fatalf("remote[%d]=%v", i, v)
		}
	}
}

func TestStoreAndWaitStores(t *testing.T) {
	w := New(machine.New(machine.SP1997(), 2))
	cell := make([]float64, 4)
	seg := on(w, 1, cell)
	err := w.Run(func(p *Proc) {
		if p.MyPC() == 0 {
			for i := range cell {
				p.Store(GPF{PC: 1, Seg: seg, Off: i}, float64(i+1))
			}
		} else {
			p.WaitStores(4)
			for i, v := range cell {
				if v != float64(i+1) {
					t.Errorf("cell[%d]=%v", i, v)
				}
			}
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBulkReadWrite(t *testing.T) {
	const n = 20
	w := New(machine.New(machine.SP1997(), 2))
	remote := make([]float64, n)
	for i := range remote {
		remote[i] = float64(i) + 0.5
	}
	local := make([]float64, n)
	src := make([]float64, n)
	for i := range src {
		src[i] = -float64(i)
	}
	gv := GVF{PC: 1, Seg: on(w, 1, remote), Len: n}
	err := w.Run(func(p *Proc) {
		if p.MyPC() == 0 {
			p.BulkRead(local, gv)
			p.BulkWrite(gv, src)
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if local[i] != float64(i)+0.5 {
			t.Fatalf("bulk read local[%d]=%v", i, local[i])
		}
		if remote[i] != -float64(i) {
			t.Fatalf("bulk write remote[%d]=%v", i, remote[i])
		}
	}
}

func TestBulkStoreCountsElements(t *testing.T) {
	w := New(machine.New(machine.SP1997(), 2))
	dst := make([]float64, 8)
	src := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	seg := on(w, 1, dst)
	err := w.Run(func(p *Proc) {
		if p.MyPC() == 0 {
			p.BulkStore(GVF{PC: 1, Seg: seg, Len: 8}, src)
		} else {
			p.WaitStores(8)
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if dst[i] != src[i] {
			t.Fatalf("dst[%d]=%v", i, dst[i])
		}
	}
}

func TestBarrierSynchronizesAll(t *testing.T) {
	const nodes = 4
	w := New(machine.New(machine.SP1997(), nodes))
	var before [nodes]time.Duration
	var after [nodes]time.Duration
	err := w.Run(func(p *Proc) {
		// Stagger arrival times.
		p.T.Compute(time.Duration(p.MyPC()*100) * time.Microsecond)
		before[p.MyPC()] = time.Duration(p.T.Now())
		p.Barrier()
		after[p.MyPC()] = time.Duration(p.T.Now())
	})
	if err != nil {
		t.Fatal(err)
	}
	var maxBefore time.Duration
	for _, b := range before {
		if b > maxBefore {
			maxBefore = b
		}
	}
	for i, a := range after {
		if a < maxBefore {
			t.Fatalf("node %d left barrier at %v before last arrival %v", i, a, maxBefore)
		}
	}
}

func TestRepeatedBarriers(t *testing.T) {
	const nodes = 3
	w := New(machine.New(machine.SP1997(), nodes))
	counts := make([]int, nodes)
	err := w.Run(func(p *Proc) {
		for i := 0; i < 5; i++ {
			counts[p.MyPC()]++
			p.Barrier()
			// After barrier k, every node must have completed iteration k.
			for j := 0; j < nodes; j++ {
				if counts[j] < counts[p.MyPC()]-1 {
					t.Errorf("barrier leaked: node %d at %d, node %d at %d",
						p.MyPC(), counts[p.MyPC()], j, counts[j])
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 5 {
			t.Fatalf("node %d ran %d iters", i, c)
		}
	}
}

func TestGetIntoManyDestinations(t *testing.T) {
	// Property: split-phase gets from random nodes land the right values.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const nodes, n = 4, 30
		w := New(machine.New(machine.SP1997(), nodes))
		src := make([][]float64, nodes)
		for i := range src {
			src[i] = make([]float64, n)
			for j := range src[i] {
				src[i][j] = rng.Float64()
			}
		}
		seg := w.Share(src)
		dst := make([]float64, n)
		want := make([]float64, n)
		idx := make([]GPF, n)
		for j := 0; j < n; j++ {
			node := rng.Intn(nodes)
			k := rng.Intn(n)
			idx[j] = GPF{PC: node, Seg: seg, Off: k}
			want[j] = src[node][k]
		}
		err := w.Run(func(p *Proc) {
			if p.MyPC() == 0 {
				for j := 0; j < n; j++ {
					p.Get(&dst[j], idx[j])
				}
				p.Sync()
			}
			p.Barrier()
		})
		if err != nil {
			return false
		}
		for j := range dst {
			if dst[j] != want[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBulkRoundTripPreservesDataProperty(t *testing.T) {
	f := func(data []float64) bool {
		if len(data) == 0 {
			data = []float64{0}
		}
		if len(data) > 256 {
			data = data[:256]
		}
		w := New(machine.New(machine.SP1997(), 2))
		remote := make([]float64, len(data))
		back := make([]float64, len(data))
		gv := GVF{PC: 1, Seg: on(w, 1, remote), Len: len(data)}
		err := w.Run(func(p *Proc) {
			if p.MyPC() == 0 {
				p.BulkWrite(gv, data)
				p.BulkRead(back, gv)
			}
			p.Barrier()
		})
		if err != nil {
			return false
		}
		for i := range data {
			// NaN-safe bit comparison.
			if (back[i] != data[i]) && !(back[i] != back[i] && data[i] != data[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicTiming(t *testing.T) {
	run := func() time.Duration {
		w := New(machine.New(machine.SP1997(), 4))
		data := w.Share([][]float64{make([]float64, 64), make([]float64, 64), make([]float64, 64), make([]float64, 64)})
		err := w.Run(func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Write(GPF{PC: (p.MyPC() + 1) % 4, Seg: data, Off: p.MyPC()*16 + i}, float64(i))
				p.Barrier()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Machine().Eng.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

// TestLeftoverMessageIsAnError: node 0 stores to node 1, whose program has
// already returned, so no thread ever handles the store. Run says so, naming
// the node, the sender and the handler, on the simulator and on live.
func TestLeftoverMessageIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    func() *machine.Machine
	}{
		{"sim", func() *machine.Machine { return machine.New(machine.SP1997(), 2) }},
		{"live", func() *machine.Machine {
			return machine.NewWithBackend(machine.SP1997(), 2, live.New(2, live.Options{Watchdog: 20 * time.Second}))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := New(tc.m())
			seg := on(w, 1, make([]float64, 1))
			err := w.Run(func(p *Proc) {
				if p.MyPC() == 0 {
					p.Store(GPF{PC: 1, Seg: seg}, 1)
				}
			})
			want := "am: node 1 ended the run with a message from node 0 for mem.req unhandled"
			if err == nil || err.Error() != want {
				t.Fatalf("Run = %v, want %q", err, want)
			}
		})
	}
}
