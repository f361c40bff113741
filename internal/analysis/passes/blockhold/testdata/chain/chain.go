// Package chain exercises the transitive blockhold layer: a call made while
// a //mpmd:cpu mutex is held, into a callee that blocks anywhere downstream,
// is reported with the witness chain to the parking operation.
package chain

import (
	"sync"
	"time"
)

type core struct {
	mu sync.Mutex //mpmd:cpu
	in chan int
}

// nap parks two hops below the lock: the witness chain names every link.
func nap() {
	time.Sleep(time.Millisecond)
}

func settle() {
	nap()
}

func stallWhileHeld(c *core) {
	c.mu.Lock()
	settle() // want `settle → nap → time.Sleep \(chain\.go:18\) while holding mu`
	c.mu.Unlock()
}

// poll only ever polls: select with default is a poll, not a block.
func poll(c *core) int {
	select {
	case v := <-c.in:
		return v
	default:
		return 0
	}
}

func pollWhileHeld(c *core) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return poll(c) // clean: callee never blocks
}

func afterRelease(c *core) {
	c.mu.Lock()
	c.mu.Unlock()
	settle() // clean: lock already released
}

// spawner registers work without blocking: the goroutine parks itself, not
// the CPU holder.
func spawner(c *core) {
	go settle()
}

func spawnWhileHeld(c *core) {
	c.mu.Lock()
	spawner(c) // clean: go statements are excluded from the summary
	c.mu.Unlock()
}

// --- interface bounding ----------------------------------------------------

type waiter interface{ wait() }

type sleepy struct{}

func (sleepy) wait() { time.Sleep(time.Second) }

func waitWhileHeld(c *core, w waiter) {
	c.mu.Lock()
	w.wait() // want `\(sleepy\)\.wait → time\.Sleep \(chain\.go:71\) while holding mu`
	c.mu.Unlock()
}

type phantom interface{ vanish() }

func phantomWhileHeld(c *core, p phantom) {
	c.mu.Lock()
	p.vanish() // want `interface call phantom.vanish has no implementers in the analyzed packages; blocking behavior cannot be verified while holding`
	c.mu.Unlock()
}
