package coll

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/threads"
)

// The acceptance bar for the team collectives: Barrier and AllReduce must
// complete in O(log n) communication rounds. The dissemination barrier has
// every member send exactly ceil(log2 n) messages per operation (one per
// round), and the binomial all-reduce at most 1 (reduce up) + ceil(log2 n)
// (broadcast down) — against the O(n) messages at the coordinator of the
// central plans. The test counts every active message a member sends, short
// (a barrier round) and bulk (a payload), via the machine's accounting,
// after a warm-up of both operations, and also checks that virtual
// completion time grows logarithmically, not linearly, with the team size.
func TestLogDepthRounds(t *testing.T) {
	const iters = 5
	elapsedBarrier := map[int]time.Duration{}
	elapsedAllReduce := map[int]time.Duration{}

	for _, n := range []int{4, 8, 16} {
		rounds := ceilLog2(n)
		m := machine.New(machine.SP1997(), n)
		rt := core.NewRuntime(m)
		tm := For(rt).World()

		barrierSends := make([]int64, n)
		reduceSends := make([]int64, n)
		barrierTime := make([]time.Duration, n)
		reduceTime := make([]time.Duration, n)
		for i := 0; i < n; i++ {
			i := i
			rt.OnNode(i, func(th *threads.Thread) {
				acct := th.Node().Acct
				// Warm-up: mailbox maps, buffer pools.
				tm.Barrier(th)
				tm.AllReduce(th, EncF64(1), SumF64)
				tm.Barrier(th)

				sent := func() int64 { return acct.Counter(machine.CntMsgShort) + acct.Counter(machine.CntMsgBulk) }
				before := sent()
				start := th.Now()
				for k := 0; k < iters; k++ {
					tm.Barrier(th)
				}
				barrierTime[i] = time.Duration(th.Now() - start)
				barrierSends[i] = sent() - before

				before = sent()
				start = th.Now()
				for k := 0; k < iters; k++ {
					tm.AllReduce(th, EncF64(float64(i)), SumF64)
				}
				reduceTime[i] = time.Duration(th.Now() - start)
				reduceSends[i] = sent() - before
			})
		}
		if err := rt.Run(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}

		for i := 0; i < n; i++ {
			// Dissemination barrier: exactly one message per round per member.
			if got, want := barrierSends[i], int64(iters*rounds); got != want {
				t.Errorf("n=%d node %d: %d barrier messages over %d barriers, want exactly %d (ceil(log2 %d)=%d rounds each)",
					n, i, got, iters, want, n, rounds)
			}
			// Binomial reduce+bcast: at most one up plus log n down per member.
			if got, max := reduceSends[i], int64(iters*(1+rounds)); got > max {
				t.Errorf("n=%d node %d: %d allreduce messages over %d ops, want <= %d",
					n, i, got, iters, max)
			}
		}
		elapsedBarrier[n] = maxDur(barrierTime)
		elapsedAllReduce[n] = maxDur(reduceTime)
	}

	// Quadrupling the team must cost ~2x (one extra round per doubling), not
	// ~4x: the virtual completion time is the round-depth signature.
	for name, el := range map[string]map[int]time.Duration{
		"Barrier": elapsedBarrier, "AllReduce": elapsedAllReduce,
	} {
		ratio := float64(el[16]) / float64(el[4])
		if ratio >= 3 {
			t.Errorf("%s: virtual time grew %.2fx from n=4 to n=16 (linear-depth behavior; want ~2x for log depth)", name, ratio)
		}
		if el[4] >= el[8] || el[8] >= el[16] {
			t.Errorf("%s: virtual times not increasing with n: 4:%v 8:%v 16:%v", name, el[4], el[8], el[16])
		}
	}
}

// ceilLog2 returns ceil(log2(n)) for n >= 1.
func ceilLog2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

func maxDur(ds []time.Duration) time.Duration {
	m := ds[0]
	for _, d := range ds[1:] {
		if d > m {
			m = d
		}
	}
	return m
}
