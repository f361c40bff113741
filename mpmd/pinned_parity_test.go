package mpmd_test

import (
	"testing"
	"time"

	"repro/internal/machine"
	"repro/mpmd"
)

// TestPinnedTypedSequence pins the full modelled accounting of one
// end-to-end typed program to golden values captured before the
// zero-allocation wire-path refactor (pooled buffers, compiled codecs, ring
// inboxes). The refactor's invariant is that it moves no modelled cost: the
// machine's total virtual time, every counter the paper's tables are built
// from, and the stub-cache/persistent-buffer statistics must stay exactly
// where the calibrated implementation put them.
//
// The sequence exercises every warm/cold wire path the typed surface has:
// cold and warm null RMIs, warm argument marshalling, return values, an
// async call, and a one-way call, across three nodes.
//
// The total is the pre-refactor value less 1 ms: the run used to end a fixed
// 1 ms of virtual time after the last program returned, and now ends when
// its work does, at the last program's return. Every counter is unchanged.
func TestPinnedTypedSequence(t *testing.T) {
	const (
		wantTotal = 1714300 * time.Nanosecond
		wantValue = 130
	)
	wantCounters := map[machine.Cnt]int64{
		machine.CntRMI:          23,
		machine.CntRMICold:      4,
		machine.CntStubHit:      19,
		machine.CntStubMiss:     4,
		machine.CntBufAlloc:     4,
		machine.CntBufReuse:     19,
		machine.CntMsgShort:     34,
		machine.CntMsgBulk:      15,
		machine.CntBytesSent:    2520,
		machine.CntHandlersRun:  49,
		machine.CntThreadCreate: 0,
	}

	m := mpmd.NewMachine(mpmd.SPConfig(), 3)
	rt := mpmd.NewRuntime(m)
	if err := mpmd.RegisterClass[parityCounter](rt); err != nil {
		t.Fatal(err)
	}
	c1, err := mpmd.NewObject[parityCounter](rt, 1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := mpmd.NewObject[parityCounter](rt, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	rt.OnNode(0, func(th *mpmd.Thread) {
		// Cold then warm null RMIs to two distinct nodes.
		for i := 0; i < 5; i++ {
			if _, err := mpmd.Invoke[mpmd.Void, mpmd.Void](th, c1, "Nop", mpmd.Void{}); err != nil {
				panic(err)
			}
			if _, err := mpmd.Invoke[mpmd.Void, mpmd.Void](th, c2, "Nop", mpmd.Void{}); err != nil {
				panic(err)
			}
		}
		// Warm argument marshalling (bulk path) and a one-way store.
		for i := 0; i < 10; i++ {
			if _, err := mpmd.Invoke[int64, mpmd.Void](th, c1, "Add", int64(i)); err != nil {
				panic(err)
			}
		}
		if err := mpmd.InvokeOneWay(th, c1, "Add", int64(85)); err != nil {
			panic(err)
		}
		// An async call joined later, then the synchronous read-back.
		fu, err := mpmd.InvokeAsync[mpmd.Void, mpmd.Void](th, c1, "Nop", mpmd.Void{})
		if err != nil {
			panic(err)
		}
		fu.Wait(th)
		v, err := mpmd.Invoke[mpmd.Void, int64](th, c1, "Get", mpmd.Void{})
		if err != nil {
			panic(err)
		}
		got = v
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got != wantValue {
		t.Errorf("counter value %d, want %d", got, wantValue)
	}
	if total := m.Eng.Now(); total != wantTotal {
		t.Errorf("machine virtual total %v, want %v (wire-path refactor moved modelled cost)", total, wantTotal)
	}
	snap := m.Snapshot()
	for name, want := range wantCounters {
		if gotC := snap.Counters[name]; gotC != want {
			t.Errorf("counter %s = %d, want %d", name, gotC, want)
		}
	}
	hits, misses := rt.StubCacheStats()
	if hits != wantCounters[machine.CntStubHit] || misses != wantCounters[machine.CntStubMiss] {
		t.Errorf("stub cache hits/misses %d/%d, want %d/%d",
			hits, misses, wantCounters[machine.CntStubHit], wantCounters[machine.CntStubMiss])
	}
	allocs, reuses := rt.BufStats()
	if allocs != wantCounters[machine.CntBufAlloc] || reuses != wantCounters[machine.CntBufReuse] {
		t.Errorf("persistent buffers alloc/reuse %d/%d, want %d/%d",
			allocs, reuses, wantCounters[machine.CntBufAlloc], wantCounters[machine.CntBufReuse])
	}
}
