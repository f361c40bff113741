// Package a exercises the lockguard pass: guarded-field accesses with and
// without the declared mutex held, cross-struct guard paths, promoted
// mutexes, read-lock writes, //mpmdvet:locked entry seeding, the
// cond.Wait-preserves-the-lock idiom, and TryLock (held on the branch where it
// succeeded, and only there).
package a

import "sync"

type node struct {
	mu    sync.Mutex
	count int //mpmdvet:guard mu
}

type proc struct {
	nd   *node
	done bool //mpmdvet:guard nd.mu
}

type table struct {
	rw sync.RWMutex
	m  map[int]int //mpmdvet:guard rw
}

type q struct {
	sync.Mutex
	items []int //mpmdvet:guard Mutex
}

type waiter struct {
	mu    sync.Mutex
	cond  sync.Cond //mpmdvet:cond mu
	ready bool      //mpmdvet:guard mu
}

// --- positives -------------------------------------------------------------

func plainAccess(n *node) int {
	return n.count // want `guarded by mu`
}

func accessAfterUnlock(n *node) int {
	n.mu.Lock()
	n.count++
	n.mu.Unlock()
	return n.count // want `guarded by mu`
}

func writeUnderReadLock(t *table) {
	t.rw.RLock()
	defer t.rw.RUnlock()
	t.m = nil // want `holding only the read lock`
}

func crossStructNoLock(p *proc) {
	p.done = true // want `guarded by nd.mu`
}

func closureWithoutLock(n *node) func() {
	n.mu.Lock()
	defer n.mu.Unlock()
	// The literal runs later, lock-free: it must take the lock itself.
	return func() {
		n.count++ // want `guarded by mu`
	}
}

func tryLockFailedBranch(n *node) {
	if !n.mu.TryLock() {
		n.count++ // want `guarded by mu`
		return
	}
	n.mu.Unlock()
}

func tryLockResultDiscarded(n *node) {
	n.mu.TryLock() // may have failed: proves nothing
	n.count++      // want `guarded by mu`
}

// --- negatives -------------------------------------------------------------

func tryLockHeld(n *node) {
	if n.mu.TryLock() {
		n.count++
		n.mu.Unlock()
	}
}

func tryLockOrGiveUp(n *node) bool {
	if !n.mu.TryLock() {
		return false
	}
	n.count++
	n.mu.Unlock()
	return true
}

func tryRLockHeld(t *table) int {
	if t.rw.TryRLock() {
		defer t.rw.RUnlock()
		return t.m[0]
	}
	return 0
}

func lockedAccess(n *node) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.count++
	return n.count
}

//mpmdvet:locked n.mu
func drainLocked(n *node) {
	n.count = 0
}

func waitLoop(w *waiter) {
	w.mu.Lock()
	for !w.ready {
		w.cond.Wait() // reacquires w.mu before returning
	}
	w.ready = false
	w.mu.Unlock()
}

func construction() *proc {
	// Composite-literal keys are construction, not shared access.
	return &proc{nd: &node{}, done: false}
}

func promotedMutex(x *q) {
	x.Lock()
	x.items = append(x.items, 1)
	x.Unlock()
}

func readUnderReadLock(t *table) int {
	t.rw.RLock()
	defer t.rw.RUnlock()
	return t.m[0]
}

// The escape hatch: a deliberate unguarded access justified in place is
// suppressed and counted, not reported.
func pragmaEscapeHatch(n *node) int {
	return n.count //mpmdvet:ignore lockguard single-writer phase before goroutines start
}
