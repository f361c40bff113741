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
// goroutines while running, and whichever goroutine runs the node's arrival
// function, for the duration of the call. A proc gives the CPU to its node's
// other procs only by parking (condition wait) — the threads package above
// runs one thread at a time and switches by unpark-then-park. Arrivals that
// found the CPU busy are run by its holder (below), also at Deliver, the
// explicit delivery point of a proc that runs without parking (the
// simulator's counterpart is an arrival event interleaving with a charge).
//
// # Message delivery
//
// The machine layer enqueues a message on the sender's goroutine (its inbound
// queues are individually thread-safe), so a destination that is actively
// polling observes the message with no handoff at all. What is left is to
// tell the node: DeliverDirect runs the one arrival function the machine
// installed (SetArrival) in the destination's context, and the sender puts it
// there itself: it TryLocks the destination's CPU and, when that succeeds
// (the receiver is parked: the ping-pong and the idle-server case), runs the
// arrival on its own goroutine and lets go. For a local send — a proc of this
// backend, sending from its own node's context, says so with DeliverDirect's
// local argument — the arrival is then the node's interrupt: the layers above
// run the destination's handlers right there, on the sender's goroutine, and
// wake a parked receiver only for a thread that must run. A null RMI between
// two idle nodes then wakes no goroutine at all; the reply lands in the
// caller's inbox and pends on the CPU the caller itself holds. Any other
// arrival (a link's, a Wake, a notify that pended) wakes a parked receiver:
// one wake-up, sender to receiver — or none, when the receiver is polling a
// link for it (below). A handler run on arrival sends the plain way, so an
// interrupt never runs inside another and a goroutine holds at most its own
// CPU, the interrupted one and, for the span of a plain arrival, a third,
// every one after its own taken by TryLock. There are no timers: every
// arrival is some goroutine's delivery.
//
// There is no receiver thread, and nothing is queued but a number. A sender
// that finds the destination's CPU busy adds one to the node's pending count,
// and whoever holds the CPU swaps the count to zero and runs the arrival
// function once before letting go: a proc at every Deliver, park and exit, a
// sender after its direct arrival. Three rules keep a pended arrival from
// being stranded, and none of them waits:
//
//   - the CPU is unlocked in one function only, release: run the pending
//     arrival, unlock, look at the pending count again, and if it is non-zero
//     TryLock and repeat;
//   - a sender whose TryLock failed adds to the count and then TryLocks once
//     more, releasing on success;
//   - the unlock inside Park's condition wait is that same release (the
//     cond's Locker is the node).
//
// Add-before-second-TryLock against unlock-before-recheck closes the window:
// either the sender's second TryLock finds the CPU free and it runs the
// arrival itself, or somebody held the CPU after the add and that holder sees
// the count on its way out. TryLock never waits and a count never fills, so
// senders never block on delivery, which rules out cross-node delivery
// deadlocks by construction. Arrivals coalesce — k pended notifies are one
// run of the arrival function, at least once after each enqueue — which is
// all a receiver needs: message order is fixed by enqueue, before any
// notify, and a woken receiver drains the whole inbox.
//
// # Who receives
//
// The sender, when it finds the node idle; otherwise the thread that waits. A
// proc that parks when no sibling holds a wake-up permit — it did not just
// hand the CPU on — leaves its node idle: nothing will run there until a
// packet arrives. In process that is all there is to it: the proc blocks on
// its condition variable, and a local sender runs the node's handlers in its
// interrupt context and wakes the proc only if a handler made its thread
// runnable (a reply it was waiting for); any other notify wakes it directly
// (the upper layer sees to it that the woken thread is the one waiting for
// that packet: a blocked RMI caller polls and parks as the node's preferred
// message waiter, so it handles its own reply and no polling thread sits in
// between). A backend that wraps this one and has inbound links
// to watch (netlive's shared-memory rings) installs an idle poll with
// SetIdlePoll; the idling proc then releases the CPU and polls those links
// itself before it blocks, and a packet for its node is enqueued, notified
// and turned into the proc's own permit on the proc's own goroutine — no
// goroutine is parked or readied to receive it. live.idle.polls and
// live.idle.parks count the idle parks that ended while polling and those
// that fell through to the condition variable. Plain live installs no poll
// and never spins.
package live

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport"
)

// Options tune the live backend. The zero value is ready to use.
type Options struct {
	// Watchdog bounds Run: if the procs have not all finished within it,
	// the run aborts with a *StallError naming the survivors instead of
	// hanging. Zero means the 30s default.
	Watchdog time.Duration
}

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

	// over is set when Run returns: the run is finished or given up on, and a
	// notify that finds its node's CPU busy is dropped and counted rather
	// than pended for a holder that may never let go.
	over atomic.Bool

	// arrive is the machine's arrival function (SetArrival, before Run), run
	// in a node's context after a notify.
	arrive func(node int, local bool)

	// idlePoll, when set (SetIdlePoll, before Run), is what a proc does
	// between leaving its node idle and blocking: see Park.
	idlePoll func(woken func() bool)

	// The latch (Abort): aborted closes with the first of causes.
	abortMu sync.Mutex
	causes  []error //mpmdvet:guard abortMu
	aborted chan struct{}
}

// Abort is the one way a run ends early, raised by any failure below it and
// by the watchdog, from any goroutine: the first cause closes the latch, and
// Run returns at once with that cause first and every later one after it.
//
//mpmd:coldpath runs once per failure
func (b *Backend) Abort(cause error) {
	b.abortMu.Lock()
	defer b.abortMu.Unlock()
	b.causes = append(b.causes, cause)
	if len(b.causes) == 1 {
		close(b.aborted)
	}
}

// Watchdog returns the bound on Run that New resolved (Options.Watchdog, or
// the 30s default).
func (b *Backend) Watchdog() time.Duration { return b.opts.Watchdog }

// Aborted is closed once the run has been aborted.
func (b *Backend) Aborted() <-chan struct{} { return b.aborted }

// Err returns the run's causes, the first first (a lone cause as itself).
func (b *Backend) Err() error {
	b.abortMu.Lock()
	defer b.abortMu.Unlock()
	if len(b.causes) == 1 {
		return b.causes[0]
	}
	return errors.Join(b.causes...)
}

// SetIdlePoll installs the reception poll of an enclosing backend that has
// inbound links to watch (see Park), set before Run or not at all. poll looks
// at the links, calling woken after every look, and returns once woken
// reports true — the proc has its wake-up, or the node is busy again — or its
// spin budget runs out; the proc then blocks as it always did.
func (b *Backend) SetIdlePoll(poll func(woken func() bool)) { b.idlePoll = poll }

// New builds a live backend for n nodes. It starts no goroutine: the only ones
// a backend ever owns are its procs.
func New(n int, opts Options) *Backend {
	if n <= 0 {
		panic("live: need at least one node")
	}
	if opts.Watchdog <= 0 {
		opts.Watchdog = 30 * time.Second
	}
	b := &Backend{
		opts:    opts,
		start:   make(chan struct{}),
		epoch:   time.Now(),
		live:    make(map[*Proc]struct{}),
		aborted: make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		b.nodes = append(b.nodes, &lnode{b: b, id: i, met: metrics.NewRegistry()})
	}
	return b
}

// SetArrival implements transport.WallClock: fn runs in a node's context
// after notifies for it. Set it before Run.
func (b *Backend) SetArrival(fn func(node int, local bool)) { b.arrive = fn }

// NodeMetrics implements transport.WallClock.
func (b *Backend) NodeMetrics(node int) *metrics.Registry {
	if node < 0 || node >= len(b.nodes) {
		return nil
	}
	return b.nodes[node].met
}

// MetricsSnapshot implements transport.WallClock: the merge of every node's
// registry.
func (b *Backend) MetricsSnapshot() metrics.Snapshot {
	snaps := make([]metrics.Snapshot, 0, len(b.nodes))
	for _, nd := range b.nodes {
		snaps = append(snaps, nd.met.Snapshot())
	}
	return metrics.Merge(snaps...)
}

// lnode is one node's execution context: the CPU mutex and the count of
// notifies waiting for it.
type lnode struct {
	b  *Backend
	id int
	// mu is the node's CPU: held by whichever context is executing, taken
	// with Lock or TryLock and given up through release alone.
	mu sync.Mutex //mpmd:cpu
	// permits counts the node's procs that hold an unconsumed Unpark permit:
	// the procs that will run once the CPU is theirs. A proc that parks with
	// permits at zero leaves the node idle — nothing runs here until a packet
	// arrives — as opposed to one that just handed the CPU to a
	// sibling.
	permits int               //mpmdvet:guard mu
	met     *metrics.Registry // wall-clock instruments; shared with upper layers via NodeMetrics

	// pend counts the notifies that found the CPU busy since its holder last
	// ran the arrival function. Any goroutine adds, only the holder swaps it
	// to zero, so the holder's check at every Deliver and release is one
	// atomic load.
	pend atomic.Int32
}

// runPending runs, CPU held, the arrival function once for the notifies
// pending on entry. Those added meanwhile are for the next Deliver, or for
// release's second look. The empty case is the one that matters (every poll
// of every thread pays it) and inlines to the atomic load.
//
//mpmdvet:locked nd.mu
//mpmd:hotpath
func (nd *lnode) runPending() {
	if nd.pend.Load() != 0 {
		nd.drain()
	}
}

// drain takes the pending count and runs the arrival function once for all
// of it. The count only grows between two drains, so the swapped value is the
// deepest it reached, and the depth gauge, a high-water mark, is raised to it.
//
//mpmdvet:locked nd.mu
//mpmd:hotpath
func (nd *lnode) drain() {
	n := int64(nd.pend.Swap(0))
	nd.met.Raise(metrics.GgeNotifyDepth, n)
	nd.b.arrive(nd.id, false)
	nd.met.Add(metrics.CtrNotifyBatches, 1)
	nd.met.Observe(metrics.HstPollBatch, n)
}

// release gives up the CPU — the only place it is unlocked. The holder runs
// the pending arrival first, and looks again after the unlock: a sender whose
// TryLock failed against this holder may have added to the count after it
// was taken, and its own second TryLock may have come before the unlock.
// Whoever wins the TryLock below — this goroutine, that sender, a proc — is
// the next holder and runs the arrival before it lets go in turn.
//
//mpmdvet:locked nd.mu
//mpmd:hotpath
func (nd *lnode) release() {
	nd.runPending()
	nd.mu.Unlock()
	for nd.pend.Load() != 0 {
		if !nd.mu.TryLock() {
			return
		}
		nd.runPending()
		nd.mu.Unlock()
	}
}

// Lock and Unlock make the node the sync.Locker of its procs' condition
// variables, so that the unlock inside cond.Wait is a release like any other.
func (nd *lnode) Lock()   { nd.mu.Lock() }
func (nd *lnode) Unlock() { nd.release() }

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

// Park implements transport.Proc. Called with the node CPU held; the
// condition wait releases it (running a pending arrival on the way), which
// is what lets sibling procs and senders' notifies run. A proc that leaves its
// node idle first polls the backend's inbound links (SetIdlePoll; see the
// package comment), and a packet for its node then becomes this proc's own
// permit on this one goroutine.
//
//mpmdvet:locked p.nd.mu
func (p *Proc) Park() {
	if p.permit {
		p.takePermit()
		return
	}
	p.parked = true
	if poll := p.b.idlePoll; poll != nil && p.nd.permits == 0 {
		p.nd.release()
		poll(p.woken)
		p.nd.mu.Lock()
		if p.permit {
			p.nd.met.Add(metrics.CtrIdlePolls, 1)
		} else {
			p.nd.met.Add(metrics.CtrIdleParks, 1)
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
// is taken — a sibling runs, or a sender is inside an arrival that may be
// this proc's wake-up; either way the node is no longer idle and Park's blocking
// Lock sorts it out.
func (p *Proc) pollWoken() bool {
	if !p.nd.mu.TryLock() {
		return true
	}
	woken := p.permit
	p.nd.release()
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

// Deliver implements transport.Proc: the notifies that found this proc
// holding the CPU are one run of the arrival function here, in place. With
// none pending, which is nearly every time because most notifies run on
// their sender, it costs one atomic load. A proc that parks needs none (its
// release runs them); the threads above call it where a thread may spin
// without parking — on every poll of the message layer.
//
//mpmdvet:locked p.nd.mu
func (p *Proc) Deliver() { p.nd.runPending() }

// Sleep implements transport.Proc. The modelled cost is already paid by real
// execution, so no time passes; what remains of a virtual-time charge is the
// interleaving the simulator's arrival events have during it: Deliver.
//
//mpmdvet:locked p.nd.mu
func (p *Proc) Sleep(d time.Duration) {
	if d > 0 {
		p.Deliver()
	}
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
	p.cond = sync.NewCond(nd)
	if b.idlePoll != nil {
		p.woken = p.pollWoken
	}
	b.mu.Lock()
	b.live[p] = struct{}{}
	b.mu.Unlock()
	b.wg.Add(1)
	go func() {
		<-b.start
		// Lock through p.nd (== nd) so the acquisition names the same lock
		// path the //mpmdvet:guard annotation on p.done resolves to.
		p.nd.mu.Lock()
		fn(p)
		p.done = true
		p.nd.release()
		b.mu.Lock()
		delete(b.live, p)
		b.mu.Unlock()
		b.wg.Done()
	}()
	return p
}

// DeliverDirect implements transport.WallClock, never waiting: with
// dst's CPU free it runs the arrival itself, passing local on, and otherwise
// adds to the pending count for the CPU's holder, then TryLocks once more (the
// sender's half of the no-lost-wake-up rule in the package comment). A notify
// that finds the CPU busy when the run is over is dropped and counted. An
// arrival that panics aborts the run and goes on unwinding into the caller.
//
//mpmd:hotpath
func (b *Backend) DeliverDirect(dst int, local bool) {
	nd := b.nodes[dst]
	if nd.mu.TryLock() {
		defer nd.unwound()
		b.arrive(dst, local)
		nd.release()
		nd.met.Add(metrics.CtrNotifyDirect, 1)
		return
	}
	if b.over.Load() {
		nd.met.Add(metrics.CtrNotifyDropped, 1)
		return
	}
	nd.pend.Add(1)
	nd.met.Add(metrics.CtrNotifies, 1)
	if nd.mu.TryLock() {
		nd.release()
	}
}

// unwound aborts the run for an arrival that panicked, which leaves the node's
// CPU held, and lets the panic go on to the caller.
//
//mpmd:coldpath a recover that finds nothing costs a call; the rest runs once, on a panic
func (nd *lnode) unwound() {
	if r := recover(); r != nil {
		nd.b.Abort(fmt.Errorf("live: node %d's arrival panicked: %v", nd.id, r))
		panic(r)
	}
}

// StallError is the watchdog's cause: procs still alive when it expired — the
// live analogue of the simulator's deadlock report, which cannot tell a
// deadlock from a slow computation (raise Options.Watchdog for long runs).
type StallError struct {
	After time.Duration
	Procs []string // names of procs still alive, sorted
}

func (e *StallError) Error() string {
	return fmt.Sprintf("live: no completion after %v: %d proc(s) still alive: %v",
		e.After, len(e.Procs), e.Procs)
}

// Run implements transport.Backend: release the procs and wait for all of
// them to finish, or for the latch (Abort). Either way the run is over when it
// returns: an aborted run leaves nothing behind but the procs still alive (and
// the goroutine waiting for them), which are the application's.
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
	defer b.over.Store(true)
	select {
	case <-done:
	case <-b.aborted:
	case <-time.After(b.opts.Watchdog):
		b.mu.Lock()
		var names []string
		for p := range b.live {
			names = append(names, p.name)
		}
		b.mu.Unlock()
		sort.Strings(names)
		b.Abort(&StallError{After: b.opts.Watchdog, Procs: names})
	}
	return b.Err()
}
