// Package a exercises the lockorder pass: acquisition-order cycles between
// two mutex classes, definite re-entrant locking, two instances of one
// class held together, and consistent orders that stay quiet.
package a

import "sync"

type srv struct {
	a sync.Mutex
	b sync.Mutex
}

// --- positives -------------------------------------------------------------

func abOrder(s *srv) {
	s.a.Lock()
	s.b.Lock() // want `lock order cycle`
	s.b.Unlock()
	s.a.Unlock()
}

func baOrder(s *srv) {
	s.b.Lock()
	s.a.Lock() // want `lock order cycle`
	s.a.Unlock()
	s.b.Unlock()
}

func reentrant(s *srv) {
	s.a.Lock()
	s.a.Lock() // want `not reentrant`
	s.a.Unlock()
	s.a.Unlock()
}

type node struct{ mu sync.Mutex }

func twoInstances(x, y *node) {
	x.mu.Lock()
	y.mu.Lock() // want `instance order`
	y.mu.Unlock()
	x.mu.Unlock()
}

type tl struct {
	p sync.Mutex
	q sync.Mutex
}

// A lock won by TryLock is held like any other: blocking on a second lock
// under it is an order edge.
func tryThenLock(t *tl) {
	if t.p.TryLock() {
		t.q.Lock() // want `lock order cycle`
		t.q.Unlock()
		t.p.Unlock()
	}
}

func lockReverse(t *tl) {
	t.q.Lock()
	t.p.Lock() // want `lock order cycle`
	t.p.Unlock()
	t.q.Unlock()
}

// --- negatives -------------------------------------------------------------

// TryLock never waits, so taking it under another lock — even a second
// instance of the same class, even against the order Lock uses elsewhere —
// cannot deadlock and draws no edge. (The live backend's direct notify: a
// sender holding its own node's CPU tries the destination's.)
func tryOtherInstance(x, y *node) {
	x.mu.Lock()
	if y.mu.TryLock() {
		y.mu.Unlock()
	}
	x.mu.Unlock()
}

func tryAgainstOrder(p *pool) {
	p.small.Lock()
	if p.big.TryLock() {
		p.big.Unlock()
	}
	p.small.Unlock()
}

type pool struct {
	big   sync.Mutex
	small sync.Mutex
}

func consistentFirst(p *pool) {
	p.big.Lock()
	p.small.Lock()
	p.small.Unlock()
	p.big.Unlock()
}

func consistentSecond(p *pool) {
	p.big.Lock()
	p.small.Lock()
	p.small.Unlock()
	p.big.Unlock()
}

func sequentialNotNested(s *srv) {
	s.a.Lock()
	s.a.Unlock()
	s.b.Lock()
	s.b.Unlock()
}

func branchReleasedBeforeSecond(s *srv) {
	s.b.Lock()
	s.b.Unlock()
	s.a.Lock()
	s.a.Unlock()
}

// The escape hatch: a deliberate violation justified in place is suppressed
// and counted, not reported.
type g struct{ m sync.Mutex }

func pragmaEscapeHatch(x *g) {
	x.m.Lock()
	x.m.Lock() //mpmdvet:ignore lockorder deliberate reentrant lock exercising the escape hatch
	x.m.Unlock()
}
