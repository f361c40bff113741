// Package a exercises the blockhold pass: blocking operations while a
// //mpmd:cpu mutex is held, and the sanctioned shapes (poll selects, waits
// on the CPU's own cond, operations after release, non-CPU locks).
package a

import (
	"net"
	"sync"
	"time"
)

type node struct {
	mu   sync.Mutex //mpmd:cpu
	cond sync.Cond  //mpmdvet:cond mu
	out  chan int
}

type pair struct {
	mu    sync.Mutex //mpmd:cpu
	other sync.Mutex
	cd    sync.Cond //mpmdvet:cond other
}

type box struct {
	mu sync.Mutex // an ordinary lock: blocking under it is fine
}

// --- positives -------------------------------------------------------------

func sendWhileHeld(n *node) {
	n.mu.Lock()
	n.out <- 1 // want `channel send while holding`
	n.mu.Unlock()
}

func recvWhileHeld(n *node) int {
	n.mu.Lock()
	v := <-n.out // want `channel receive while holding`
	n.mu.Unlock()
	return v
}

func sleepWhileHeld(n *node) {
	n.mu.Lock()
	time.Sleep(time.Millisecond) // want `time.Sleep while holding`
	n.mu.Unlock()
}

func writeWhileHeld(n *node, c net.Conn) {
	n.mu.Lock()
	c.Write([]byte("x")) // want `network I/O`
	n.mu.Unlock()
}

func spinWhileHeld(n *node) {
	n.mu.Lock()
	for { // want `unbounded loop while holding`
	}
}

func rangeWhileHeld(n *node) {
	n.mu.Lock()
	for v := range n.out { // want `range over a channel while holding`
		_ = v
	}
	n.mu.Unlock()
}

func waitWrongLock(p *pair) {
	p.mu.Lock()
	p.cd.Wait() // want `Cond.Wait on a lock other than the held CPU mutex`
	p.mu.Unlock()
}

func sleepUnderTryLock(n *node) {
	if n.mu.TryLock() { // the CPU is held on this branch
		time.Sleep(time.Millisecond) // want `time.Sleep while holding`
		n.mu.Unlock()
	}
}

// --- negatives -------------------------------------------------------------

// TryLock never waits: trying another node's CPU while holding one's own is
// not a blocking operation, and the failed branch holds nothing new.
func tryOtherCPU(n, other *node) {
	n.mu.Lock()
	if other.mu.TryLock() {
		other.mu.Unlock()
	}
	n.mu.Unlock()
}

func sleepWhenTryLockFailed(n *node) {
	if !n.mu.TryLock() {
		time.Sleep(time.Millisecond)
		return
	}
	n.mu.Unlock()
}

func afterUnlock(n *node) {
	n.mu.Lock()
	n.mu.Unlock()
	n.out <- 1
}

func pollWhileHeld(n *node) {
	n.mu.Lock()
	select {
	case n.out <- 1:
	default:
	}
	n.mu.Unlock()
}

func waitOwnLock(n *node) {
	n.mu.Lock()
	for len(n.out) == 0 {
		n.cond.Wait()
	}
	n.mu.Unlock()
}

func nonCPULock(b *box, ch chan int) {
	b.mu.Lock()
	ch <- 1
	b.mu.Unlock()
}

func spawnWhileHeld(n *node) {
	n.mu.Lock()
	go func() {
		n.out <- 1 // goroutine body has its own (empty) lockset
	}()
	n.mu.Unlock()
}

func pragmaEscapeHatch(n *node) {
	n.mu.Lock()
	n.out <- 1 //mpmdvet:ignore blockhold buffered channel sized for the bootstrap burst
	n.mu.Unlock()
}
