package threads

import "repro/internal/machine"

// Mutex is a node-local mutual-exclusion lock with FIFO handoff. Lock and
// Unlock each cost one sync operation, matching the paper's accounting in
// which 95% of acquisitions are contention-less but still paid for.
type Mutex struct {
	owner   *Thread
	waiters []*Thread
}

// Lock acquires the mutex, blocking the thread if it is held. Ownership is
// transferred FIFO to keep the simulation deterministic.
func (m *Mutex) Lock(t *Thread) {
	t.chargeSync()
	if m.owner == nil {
		m.owner = t
		return
	}
	t.s.node.Acct.Count(machine.CntLockContended, 1)
	m.waiters = append(m.waiters, t)
	t.Block()
	// Unlock handed us ownership before waking us.
	if m.owner != t {
		panic("threads: woke from Lock without ownership")
	}
}

// TryLock acquires the mutex only if it is free, charging one sync op either
// way. It reports whether the lock was taken.
func (m *Mutex) TryLock(t *Thread) bool {
	t.chargeSync()
	if m.owner == nil {
		m.owner = t
		return true
	}
	return false
}

// Unlock releases the mutex, handing it directly to the oldest waiter if any.
func (m *Mutex) Unlock(t *Thread) {
	if m.owner != t {
		panic("threads: Unlock by non-owner " + t.name)
	}
	t.chargeSync()
	if len(m.waiters) > 0 {
		w := m.waiters[0]
		copy(m.waiters, m.waiters[1:])
		m.waiters = m.waiters[:len(m.waiters)-1]
		m.owner = w
		t.s.MakeReady(w)
		return
	}
	m.owner = nil
}

// Cond is a condition variable tied to a Mutex.
type Cond struct {
	M       *Mutex
	waiters []*Thread
}

// Wait atomically releases the mutex and suspends the thread until Signal or
// Broadcast, then reacquires the mutex before returning. The wait itself
// costs one sync op in addition to the unlock/relock pair, mirroring a
// pthread-style implementation.
func (c *Cond) Wait(t *Thread) {
	t.chargeSync()
	c.waiters = append(c.waiters, t)
	c.M.Unlock(t)
	t.Block()
	c.M.Lock(t)
}

// Signal wakes the oldest waiter, if any.
func (c *Cond) Signal(t *Thread) {
	t.chargeSync()
	if len(c.waiters) == 0 {
		return
	}
	w := c.waiters[0]
	copy(c.waiters, c.waiters[1:])
	c.waiters = c.waiters[:len(c.waiters)-1]
	t.s.MakeReady(w)
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast(t *Thread) {
	t.chargeSync()
	for _, w := range c.waiters {
		t.s.MakeReady(w)
	}
	c.waiters = c.waiters[:0]
}

// SyncVar is a write-once synchronization variable, the CC++ `sync T`
// primitive: readers block until the single write happens.
type SyncVar struct {
	set     bool
	val     any
	waiters []*Thread
}

// IsSet reports whether the variable has been written.
func (v *SyncVar) IsSet() bool { return v.set }

// Read blocks until the variable is written, then returns its value. Each
// read costs one sync op.
func (v *SyncVar) Read(t *Thread) any {
	t.chargeSync()
	for !v.set {
		v.waiters = append(v.waiters, t)
		t.Block()
	}
	return v.val
}

// Write sets the value exactly once and wakes all blocked readers. A second
// write panics: single-assignment is the language invariant the runtime
// relies on. The waiter list keeps its backing array so a Reset variable
// reused from a pool stops allocating after its first blocking read.
func (v *SyncVar) Write(t *Thread, val any) {
	if v.set {
		panic("threads: SyncVar written twice")
	}
	t.chargeSync()
	v.set = true
	v.val = val
	for i, w := range v.waiters {
		t.s.MakeReady(w)
		v.waiters[i] = nil
	}
	v.waiters = v.waiters[:0]
}

// Reset re-arms a consumed variable for reuse — the escape hatch the
// runtime's pooled completion records use once they have proven no reader
// can still be parked (the completing write ran and every reader returned).
// Resetting a variable with parked readers would strand them, so it panics.
func (v *SyncVar) Reset() {
	if len(v.waiters) != 0 {
		panic("threads: Reset of SyncVar with parked readers")
	}
	v.set = false
	v.val = nil
}

// WaitGroup counts outstanding work items; Wait blocks until the count
// reaches zero. Used by the runtimes to implement par/parfor joins and
// split-phase completion counters.
type WaitGroup struct {
	n       int
	waiters []*Thread
}

// Add adjusts the counter by delta without charging (bookkeeping only;
// charging happens at the Done/Wait synchronization points).
func (g *WaitGroup) Add(delta int) {
	g.n += delta
	if g.n < 0 {
		panic("threads: negative WaitGroup counter")
	}
}

// Done decrements the counter, charging one sync op, and wakes waiters when
// it reaches zero.
func (g *WaitGroup) Done(t *Thread) {
	t.chargeSync()
	g.n--
	if g.n < 0 {
		panic("threads: WaitGroup Done below zero")
	}
	if g.n == 0 {
		for _, w := range g.waiters {
			t.s.MakeReady(w)
		}
		g.waiters = nil
	}
}

// Wait blocks until the counter is zero, charging one sync op.
func (g *WaitGroup) Wait(t *Thread) {
	t.chargeSync()
	for g.n > 0 {
		g.waiters = append(g.waiters, t)
		t.Block()
	}
}
