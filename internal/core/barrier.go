package core

import (
	"repro/internal/am"
	"repro/internal/threads"
)

// barrierObj is the processor object behind Barrier: a counter plus a
// condition variable, living on one node. Arriving threads (spawned by
// threaded RMIs) block on the condition until the last participant arrives —
// global synchronization expressed purely through RMI, the way a CC++
// program has to build it (the language has no built-in barrier, unlike
// Split-C).
type barrierObj struct {
	mu    threads.Mutex
	cond  threads.Cond
	n     int
	count int
	gen   int64
}

// barrierClassName is the registered class of barrier objects.
const barrierClassName = "__barrier"

func barrierClass() *Class {
	return &Class{
		Name: barrierClassName,
		New:  func() any { b := &barrierObj{}; b.cond.M = &b.mu; return b },
		Methods: []*Method{
			{
				Name:    "init",
				NewArgs: func() []Arg { return []Arg{&I64{}} },
				Fn: func(t *threads.Thread, self any, args []Arg, ret Arg) {
					self.(*barrierObj).n = int(args[0].(*I64).V)
				},
			},
			{
				// arrive blocks (on a fresh thread at the barrier's node)
				// until all participants have arrived; its RMI reply is the
				// release message.
				Name:     "arrive",
				Threaded: true,
				Fn: func(t *threads.Thread, self any, args []Arg, ret Arg) {
					b := self.(*barrierObj)
					b.mu.Lock(t)
					gen := b.gen
					b.count++
					if b.count == b.n {
						b.count = 0
						b.gen++
						b.cond.Broadcast(t)
					} else {
						for b.gen == gen {
							b.cond.Wait(t)
						}
					}
					b.mu.Unlock(t)
				},
			},
		},
	}
}

// Barrier is a global synchronization object for CC++ programs, built
// entirely from RMIs to a processor object.
type Barrier struct {
	rt *Runtime
	gp GPtr
}

// NewBarrier creates (at setup time) a barrier object on the given node for
// n participants. The barrier class is registered on first use.
func (rt *Runtime) NewBarrier(node, n int) *Barrier {
	if _, ok := rt.classes[barrierClassName]; !ok {
		rt.RegisterClass(barrierClass())
	}
	gp := rt.CreateObject(node, barrierClassName)
	rt.Object(gp).(*barrierObj).n = n
	return &Barrier{rt: rt, gp: gp}
}

// Arrive enters the barrier and returns when all participants have arrived.
func (b *Barrier) Arrive(t *threads.Thread) {
	b.rt.Call(t, b.gp, "arrive", nil, nil)
}

// WaitLocal polls the network until the node-local count c reaches v —
// typically a count of deliveries that the methods incoming one-way RMIs run
// advance. It is the CC++ analogue of Split-C's store-sync wait: the calling
// thread services messages while it waits (am.Endpoint.Await).
func (rt *Runtime) WaitLocal(t *threads.Thread, c *am.Count, v uint64) {
	t.ChargeSyncOps(1)
	rt.nodeOf(t).ep.Await(t, c, v)
}
