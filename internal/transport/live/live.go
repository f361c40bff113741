// Package live is the real-concurrency transport backend: every Proc is an
// ordinary goroutine, the clock is time.Now(), and modelled latencies are
// ignored — programs run as fast as the hardware allows.
//
// # Node serialization
//
// The upper layers (thread scheduler, AM endpoint, buffer managers) mutate
// per-node state with no locking of their own; on the simulator the global
// event loop makes that safe. Here each node owns one mutex — its "CPU" — and
// everything that executes in the node's context holds it: the node's proc
// goroutines while running, and whichever goroutine runs a notify or timer
// callback for the node, for the duration of the callback. A proc gives the
// CPU to its node's other procs only by parking (condition wait) — the
// threads package above runs one thread at a time and switches by
// unpark-then-park — and to delivery and timer callbacks also during Sleep,
// which is where the simulator lets arrival events interleave with a charge.
//
// # Message delivery
//
// The machine layer enqueues a message on the sender's goroutine (its inbound
// queues are individually thread-safe), so a destination that is actively
// polling observes the message with no handoff at all. The notify callback
// handed to DeliverDirect — waking a parked receiver — must run in the
// destination's context, and the sender puts it there itself: it TryLocks the
// destination's CPU and, when that succeeds (the receiver is parked: the
// ping-pong and the idle-server case), runs notify on its own goroutine and
// unlocks. An arrival then costs the one wake-up that is inherent, sender to
// receiver — or none, when the receiver is polling a link for it (below).
// Only when the destination's CPU is busy does the notify fall back to the
// node's unbounded notify queue, to be run by the node's delivery
// worker, which drains the queue in batches under a single CPU acquisition;
// the worker is also where After callbacks run. TryLock never waits and the
// queue never fills, so senders never block on delivery, which rules out
// cross-node delivery deadlocks by construction. Notifies of one sender may
// therefore run out of send order (a queued one after a later direct one);
// that is harmless because message order is fixed by enqueue, before any
// notify, and arrivals are coalescible — a woken receiver drains the whole
// inbox.
//
// # Who receives
//
// The thread that waits. A proc that parks when no sibling holds a wake-up
// permit — it did not just hand the CPU on — leaves its node idle: nothing
// will run there until a packet or a timer arrives. In process that is all
// there is to it: the proc blocks on its condition variable and the sender's
// direct notify wakes it (the upper layer sees to it that the woken thread is
// the one waiting for that packet: a blocked RMI caller polls and parks as the
// node's preferred message waiter, so it handles its own reply and no polling
// thread sits in between). A backend that wraps this one and has inbound links
// to watch (netlive's shared-memory rings) installs an idle poll with
// SetIdlePoll; the idling proc then releases the CPU and polls those links
// itself before it blocks, and a packet for its node is enqueued, notified
// and turned into the proc's own permit on the proc's own goroutine — no
// goroutine is parked or readied to receive it. live.idle.polls and
// live.idle.parks count the idle parks that ended while polling and those
// that fell through to the condition variable. Plain live installs no poll
// and never spins.
//
// # The CPU release in Sleep
//
// Sleep must give a delivery worker that is waiting for the CPU a window.
// The worker is the only context that blocks on a node's CPU from outside the
// node's own procs (a sender only ever TryLocks it), and it says so: it
// raises the node's wanted count around its Lock. Sleep releases and retakes
// the CPU only when wanted is non-zero, so a contender gets the window it
// always had and an uncontended charge costs one atomic load.
package live

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Options tune the live backend. The zero value is ready to use.
type Options struct {
	// Watchdog bounds Run: if the procs have not all finished within it,
	// Run returns a *StallError naming the survivors instead of hanging.
	// Zero means the 30s default.
	Watchdog time.Duration
	// Teardown bounds how long a stalled run (Run returned StallError) keeps
	// its delivery workers alive waiting for the stragglers: after it
	// expires the notify queues close and the workers plus the janitor exit,
	// so a run that never finishes leaks only the stuck procs themselves.
	// Zero means the 5s default.
	Teardown time.Duration
	// CPUAffinity, when non-empty, binds every proc goroutine and delivery
	// worker of this backend to the given CPU set (sched_setaffinity on
	// Linux; a no-op elsewhere). Each bound goroutine locks its OS thread
	// first so the mask sticks to a dedicated thread, and the thread is
	// retired with the goroutine rather than returned to the runtime's pool
	// with a narrowed mask.
	CPUAffinity []int
}

// notifyBatch caps how many notify callbacks the delivery worker runs per
// CPU acquisition.
const notifyBatch = 128

// Backend is the live transport. Construct with New.
type Backend struct {
	opts  Options
	nodes []*lnode
	start chan struct{}
	ran   atomic.Bool
	epoch time.Time // clock origin; immutable after New (keeps the monotonic reading)
	wg    sync.WaitGroup

	mu   sync.Mutex
	live map[*Proc]struct{} //mpmdvet:guard mu

	// timers tracks outstanding After callbacks so shutdown can cancel them
	// instead of leaking them (a pending time.AfterFunc used to outlive Run,
	// and one that fired after closeQueues pushed onto a closed queue and
	// vanished silently). lateAfter counts callbacks that still slipped past
	// cancellation into a closed queue — surfaced through Err.
	timersMu  sync.Mutex
	timers    map[*time.Timer]struct{} //mpmdvet:guard timersMu
	closed    bool                     //mpmdvet:guard timersMu
	lateAfter int                      //mpmdvet:guard timersMu

	// idlePoll, when set (SetIdlePoll, before Run), is what a proc does
	// between leaving its node idle and blocking: see Park.
	idlePoll func(woken func() bool)
}

// SetIdlePoll installs the reception poll of an enclosing backend that has
// inbound links to watch (netlive's shared-memory rings): a proc that parks
// and leaves its node idle calls poll, with the node's CPU released, before it
// blocks. poll looks at the links for as long as it sees fit, calling woken
// after every look; woken reports true once the proc has its wake-up (a
// packet the poll itself delivered made it runnable — the delivery found the
// CPU free and ran the notify on this very goroutine) or the node is busy
// again, and poll must then return. It must also return, unasked, when its
// spin budget runs out; the proc then blocks as it always did. This is wiring
// between two backends, not an option: set it before Run, or not at all.
func (b *Backend) SetIdlePoll(poll func(woken func() bool)) { b.idlePoll = poll }

// New builds a live backend for n nodes and starts the per-node delivery
// workers.
func New(n int, opts Options) *Backend {
	if n <= 0 {
		panic("live: need at least one node")
	}
	if opts.Watchdog <= 0 {
		opts.Watchdog = 30 * time.Second
	}
	if opts.Teardown <= 0 {
		opts.Teardown = 5 * time.Second
	}
	b := &Backend{
		opts:   opts,
		start:  make(chan struct{}),
		epoch:  time.Now(),
		live:   make(map[*Proc]struct{}),
		timers: make(map[*time.Timer]struct{}),
	}
	for i := 0; i < n; i++ {
		nd := &lnode{id: i, met: metrics.NewRegistry()}
		nd.q.cond = sync.NewCond(&nd.q.mu)
		b.nodes = append(b.nodes, nd)
		go func() {
			// Delivery callbacks run node context too: bind the worker to the
			// same CPU set as the procs. The locked thread dies with the
			// goroutine, taking its narrowed mask with it.
			if len(opts.CPUAffinity) > 0 {
				runtime.LockOSThread()
				setAffinity(opts.CPUAffinity)
			}
			nd.deliveryLoop()
		}()
	}
	return b
}

// NodeMetrics implements transport.MetricsSource.
func (b *Backend) NodeMetrics(node int) *metrics.Registry {
	if node < 0 || node >= len(b.nodes) {
		return nil
	}
	return b.nodes[node].met
}

// MetricsSnapshot implements transport.MetricsSource: the merge of every
// node's registry.
func (b *Backend) MetricsSnapshot() metrics.Snapshot {
	snaps := make([]metrics.Snapshot, 0, len(b.nodes))
	for _, nd := range b.nodes {
		snaps = append(snaps, nd.met.Snapshot())
	}
	return metrics.Merge(snaps...)
}

// lnode is one node's execution context: the CPU mutex and the notify queue.
type lnode struct {
	id int
	// mu is the node's CPU: held by whichever context is executing.
	mu sync.Mutex //mpmd:cpu
	// wanted counts delivery workers blocked (or about to block) in mu.Lock;
	// Sleep opens its release window only when it is non-zero.
	wanted atomic.Int32
	// permits counts the node's procs that hold an unconsumed Unpark permit:
	// the procs that will run once the CPU is theirs. A proc that parks with
	// permits at zero leaves the node idle — nothing runs here until a packet
	// or a timer arrives — as opposed to one that just handed the CPU to a
	// sibling.
	permits int               //mpmdvet:guard mu
	met     *metrics.Registry // wall-clock instruments; shared with upper layers via NodeMetrics

	q struct {
		mu     sync.Mutex
		cond   *sync.Cond        //mpmdvet:cond mu
		fns    wire.Ring[func()] //mpmdvet:guard mu
		closed bool              //mpmdvet:guard mu
	}

	// batch is the delivery worker's reusable drain buffer (worker-private,
	// no lock needed). Pre-sized to the batch cap so steady-state delivery
	// allocates nothing.
	batch []func()
}

// push appends fn to the notify queue, reporting false if the queue has
// already closed (shutdown raced the caller). Never blocks (the queue is
// unbounded), so senders holding their own node's CPU cannot deadlock
// against delivery. The queue is a ring and the warm path's closures are
// long-lived (one per destination node), so a steady-state push allocates
// nothing.
//
//mpmd:hotpath
func (nd *lnode) push(fn func()) bool {
	nd.q.mu.Lock()
	if nd.q.closed {
		nd.q.mu.Unlock()
		return false
	}
	nd.q.fns.Push(fn)
	depth := nd.q.fns.Len()
	nd.q.mu.Unlock()
	if met := nd.met; met != nil {
		met.Add(metrics.CtrNotifies, 1)
		met.Set(metrics.GgeNotifyDepth, int64(depth))
	}
	nd.q.cond.Signal()
	return true
}

// deliveryLoop is the node's delivery worker: drain pending notifies and run
// them on the node's CPU, at most notifyBatch per acquisition. The drain
// buffer is reused across batches.
//
//mpmd:hotpath
func (nd *lnode) deliveryLoop() {
	nd.batch = make([]func(), 0, notifyBatch) //mpmdvet:ignore hotpath one-time drain-buffer init before the loop; reused every batch after
	for {
		nd.q.mu.Lock()
		for nd.q.fns.Len() == 0 && !nd.q.closed {
			nd.q.cond.Wait()
		}
		if nd.q.fns.Len() == 0 {
			nd.q.mu.Unlock()
			return // closed and drained
		}
		take := nd.batch[:0]
		for len(take) < notifyBatch {
			fn, ok := nd.q.fns.Pop()
			if !ok {
				break
			}
			take = append(take, fn)
		}
		nd.q.mu.Unlock()
		if met := nd.met; met != nil {
			met.Add(metrics.CtrNotifyBatches, 1)
			met.Observe(metrics.HstPollBatch, int64(len(take)))
		}

		// Announce before blocking: a proc that charges without parking
		// releases the CPU in Sleep only for an announced contender.
		nd.wanted.Add(1)
		nd.mu.Lock()
		nd.wanted.Add(-1)
		for i, fn := range take {
			fn()
			take[i] = nil // drop the reference; the buffer is reused
		}
		nd.mu.Unlock()
	}
}

// close shuts the notify queue; the worker exits after draining.
func (nd *lnode) close() {
	nd.q.mu.Lock()
	nd.q.closed = true
	nd.q.mu.Unlock()
	nd.q.cond.Broadcast()
}

// Proc is a live schedulable context: a goroutine that holds its node's CPU
// mutex whenever it is running.
type Proc struct {
	b    *Backend
	nd   *lnode
	name string
	cond *sync.Cond //mpmdvet:cond nd.mu

	permit bool //mpmdvet:guard nd.mu
	parked bool //mpmdvet:guard nd.mu
	done   bool //mpmdvet:guard nd.mu

	// woken is p.pollWoken as a func value, built once at Go (when there is
	// an idle poll to hand it to) so that an idle park does not allocate.
	woken func() bool
}

// Name implements transport.Proc.
func (p *Proc) Name() string { return p.name }

// Now implements transport.Proc: wall-clock time since the backend was
// created.
func (p *Proc) Now() time.Duration { return p.b.Now() }

// Park implements transport.Proc. Called with the node CPU held; the
// condition wait releases it, which is what lets the delivery worker and
// sibling procs run.
//
// A proc that parks and leaves its node idle is the thread that waits for
// the node's next packet, so when the backend has inbound links to poll
// (SetIdlePoll) it receives that packet itself: it releases the CPU and polls
// the links, and a packet for its node then travels ring → inbox →
// DeliverDirect (the CPU is free: TryLock succeeds) → notify → this proc's own
// permit on this one goroutine, with no goroutine parked or readied. Only
// when the poll gives up does the proc block on its condition variable, to be
// woken by whoever delivers next.
//
//mpmdvet:locked p.nd.mu
func (p *Proc) Park() {
	if p.permit {
		p.takePermit()
		return
	}
	p.parked = true
	if poll := p.b.idlePoll; poll != nil && p.nd.permits == 0 {
		p.nd.mu.Unlock()
		poll(p.woken)
		p.nd.mu.Lock()
		if met := p.nd.met; met != nil {
			if p.permit {
				met.Add(metrics.CtrIdlePolls, 1)
			} else {
				met.Add(metrics.CtrIdleParks, 1)
			}
		}
	}
	for !p.permit {
		p.cond.Wait()
	}
	p.takePermit()
	p.parked = false
}

// takePermit consumes the proc's wake-up permit.
//
//mpmdvet:locked p.nd.mu
func (p *Proc) takePermit() {
	p.permit = false
	p.nd.permits--
}

// pollWoken is the idle poll's "stop now" test (SetIdlePoll), called with the
// node CPU released: true when the proc has its permit, and also when the CPU
// is taken — a sibling runs, or a sender is inside a notify that may be this
// proc's wake-up; either way the node is no longer idle and Park's blocking
// Lock sorts it out.
func (p *Proc) pollWoken() bool {
	if !p.nd.mu.TryLock() {
		return true
	}
	woken := p.permit
	p.nd.mu.Unlock()
	return woken
}

// Unpark implements transport.Proc. Must be called from the same node's
// execution context (which holds the node CPU).
//
//mpmdvet:locked p.nd.mu
func (p *Proc) Unpark() {
	if p.done {
		panic("live: Unpark of dead proc " + p.name)
	}
	if !p.permit {
		p.permit = true
		p.nd.permits++
	}
	if p.parked {
		p.cond.Signal()
	}
}

// Sleep implements transport.Proc. The modelled cost is already paid by real
// execution, so no time passes; what remains is the interleaving window the
// simulator's arrival events have during a virtual-time charge. It is opened
// on demand: only when the node's delivery worker has announced that it is
// waiting for the CPU (wanted != 0) is the CPU released and retaken — a bare
// mutex handoff the waiting worker acquires. With nobody waiting, which is
// nearly every charge because most notifies run on their sender, a charge
// costs one atomic load. A worker that announces just after the load is
// served by the next charge or Park, exactly as one that arrived just after
// an unconditional release was.
//
//mpmdvet:locked p.nd.mu
func (p *Proc) Sleep(d time.Duration) {
	if d <= 0 || p.nd.wanted.Load() == 0 {
		return
	}
	p.nd.mu.Unlock()
	p.nd.mu.Lock()
}

// Name implements transport.Backend.
func (b *Backend) Name() string { return "live" }

// NumNodes implements transport.Backend.
func (b *Backend) NumNodes() int { return len(b.nodes) }

// Now implements transport.Backend: wall-clock time since the backend was
// created. Uses Go's monotonic clock reading, so it never jumps or runs
// backwards under NTP adjustment.
func (b *Backend) Now() time.Duration { return time.Since(b.epoch) }

// Go implements transport.Backend.
func (b *Backend) Go(node int, name string, fn func(transport.Proc)) transport.Proc {
	nd := b.nodes[node]
	p := &Proc{b: b, nd: nd, name: name}
	p.cond = sync.NewCond(&nd.mu)
	if b.idlePoll != nil {
		p.woken = p.pollWoken
	}
	b.mu.Lock()
	b.live[p] = struct{}{}
	b.mu.Unlock()
	b.wg.Add(1)
	go func() {
		if len(b.opts.CPUAffinity) > 0 {
			// No matching Unlock: a thread whose affinity mask was narrowed
			// must not rejoin the runtime's thread pool, so it is retired
			// when the proc goroutine exits.
			runtime.LockOSThread()
			setAffinity(b.opts.CPUAffinity)
		}
		<-b.start
		// Lock through p.nd (== nd) so the acquisition names the same lock
		// path the //mpmdvet:guard annotation on p.done resolves to.
		p.nd.mu.Lock()
		fn(p)
		p.done = true
		p.nd.mu.Unlock()
		b.mu.Lock()
		delete(b.live, p)
		b.mu.Unlock()
		b.wg.Done()
	}()
	return p
}

// DeliverDirect implements transport.DirectDeliverer: the caller already ran
// the enqueue step, so only the (long-lived, caller-owned) notify closure is
// left to run in dst's context. If dst's CPU is free — its procs are parked —
// the caller takes it and runs notify itself; otherwise notify is queued to
// dst's delivery worker. Either way the caller never waits, even while it
// holds its own node's CPU. A notify that finds the queue closed (the run is
// over) is dropped and counted.
//
//mpmd:hotpath
func (b *Backend) DeliverDirect(dst int, notify func()) {
	nd := b.nodes[dst]
	if nd.mu.TryLock() {
		notify()
		nd.mu.Unlock()
		if met := nd.met; met != nil {
			met.Add(metrics.CtrNotifyDirect, 1)
		}
		return
	}
	if !nd.push(notify) {
		if met := nd.met; met != nil {
			met.Add(metrics.CtrNotifyDropped, 1)
		}
	}
}

// After implements transport.Backend: fn runs in node's execution context
// after wall-clock delay d. Timers pending when the run completes are
// cancelled at shutdown (their callbacks never run); a callback that races
// shutdown and finds the queues already closed is dropped and counted as a
// lifecycle error (Err).
func (b *Backend) After(node int, d time.Duration, fn func()) {
	nd := b.nodes[node]
	if d <= 0 {
		if !nd.push(fn) {
			b.noteLateAfter()
		}
		return
	}
	// Register under timersMu *around* arming the timer: the callback's
	// first act is to take the same mutex, so even a timer that fires
	// immediately blocks until registration is complete — it always sees
	// the assigned tm (no torn read) and always finds its table entry.
	b.timersMu.Lock()
	if b.closed {
		// The run is already torn down; the callback could never be
		// delivered into a node context.
		b.lateAfter++
		b.timersMu.Unlock()
		return
	}
	var tm *time.Timer
	tm = time.AfterFunc(d, func() {
		b.timersMu.Lock()
		delete(b.timers, tm)
		b.timersMu.Unlock()
		if !nd.push(fn) {
			b.noteLateAfter()
		}
	})
	b.timers[tm] = struct{}{}
	b.timersMu.Unlock()
}

// noteLateAfter records a timer callback that outlived the run.
func (b *Backend) noteLateAfter() {
	b.timersMu.Lock()
	b.lateAfter++
	b.timersMu.Unlock()
}

// cancelTimers stops every outstanding After timer at shutdown. A timer
// whose callback is already in flight unregisters itself; if it then finds
// its queue closed it is counted by noteLateAfter.
func (b *Backend) cancelTimers() {
	b.timersMu.Lock()
	b.closed = true
	tms := make([]*time.Timer, 0, len(b.timers))
	for tm := range b.timers {
		tms = append(tms, tm)
	}
	b.timers = make(map[*time.Timer]struct{})
	b.timersMu.Unlock()
	for _, tm := range tms {
		tm.Stop()
	}
}

// Err reports lifecycle faults of a completed run: currently, After
// callbacks that fired after shutdown and were dropped.
func (b *Backend) Err() error {
	b.timersMu.Lock()
	defer b.timersMu.Unlock()
	if b.lateAfter > 0 {
		return fmt.Errorf("live: %d After callback(s) fired after shutdown and were dropped", b.lateAfter)
	}
	return nil
}

// StallError reports that the watchdog expired with procs still alive —
// the live analogue of the simulator's deadlock report (it cannot
// distinguish a deadlock from a computation that is merely slow; raise
// Options.Watchdog for long runs).
type StallError struct {
	After time.Duration
	Procs []string // names of procs still alive, sorted
}

func (e *StallError) Error() string {
	return fmt.Sprintf("live: no completion after %v: %d proc(s) still alive: %v",
		e.After, len(e.Procs), e.Procs)
}

// Run implements transport.Backend: release the procs and wait for all of
// them to finish, bounded by the watchdog.
func (b *Backend) Run() error {
	if !b.ran.CompareAndSwap(false, true) {
		panic("live: Run called twice")
	}
	close(b.start)
	done := make(chan struct{})
	go func() {
		b.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(b.opts.Watchdog):
		// Report, but keep serving for a bounded grace: the watchdog cannot
		// distinguish a deadlock from a run that is merely slow, so the
		// delivery workers stay up for Options.Teardown in case the
		// stragglers finish. Then the janitor tears the queues down
		// unconditionally — a stalled run must not pin its n delivery
		// workers (plus this janitor) forever; only the stuck proc
		// goroutines themselves remain, and those are the application's.
		go func() {
			select {
			case <-done:
			case <-time.After(b.opts.Teardown):
			}
			b.cancelTimers()
			b.closeQueues()
		}()
		b.mu.Lock()
		var names []string
		for p := range b.live {
			names = append(names, p.name)
		}
		b.mu.Unlock()
		sort.Strings(names)
		return &StallError{After: b.opts.Watchdog, Procs: names}
	}
	b.cancelTimers()
	b.closeQueues()
	return nil
}

// closeQueues shuts every node's notify queue so the delivery workers exit.
func (b *Backend) closeQueues() {
	for _, nd := range b.nodes {
		nd.close()
	}
}
