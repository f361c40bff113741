// Package sim provides a deterministic discrete-event simulation engine
// with goroutine-backed simulated processes.
//
// The engine owns a virtual clock and an event heap. Exactly one goroutine
// (the engine's, or one process's) runs at any instant; control is handed
// back and forth over unbuffered channels, so simulations are deterministic
// and race-free: events at equal virtual times fire in scheduling order.
//
// Processes are ordinary Go functions that receive a *Proc handle. A process
// advances virtual time with Sleep, blocks with Park, and is made runnable
// again with Unpark. All higher layers (machine, threads, active messages)
// are built on these three primitives.
package sim

import (
	"container/heap"
	"fmt"
	"sort"
	"time"
)

// Time is a point in virtual time, measured from the start of the
// simulation. It uses time.Duration (nanoseconds) so that sub-microsecond
// costs such as a 0.4 µs lock operation are representable exactly.
type Time = time.Duration

// event is a scheduled callback. seq breaks ties among events with equal
// timestamps so ordering is fully deterministic.
type event struct {
	at  Time
	seq int64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with New.
type Engine struct {
	now    Time
	events eventHeap
	seq    int64

	// yield carries control from the currently-running process back to the
	// engine loop. It is unbuffered: the engine blocks until the process
	// stops, and vice versa.
	yield chan struct{}

	procs    map[int64]*Proc
	procSeq  int64
	live     int // processes that have started and not yet finished
	inEngine bool

	// Stats.
	eventsRun int64
}

// New returns an empty simulation engine at virtual time zero.
func New() *Engine {
	return &Engine{
		yield: make(chan struct{}),
		procs: make(map[int64]*Proc),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// EventsRun reports how many events have been processed so far.
func (e *Engine) EventsRun() int64 { return e.eventsRun }

// LiveProcs reports the number of processes that have been started and have
// not yet returned.
func (e *Engine) LiveProcs() int { return e.live }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past (at=%v, now=%v)", t, e.now))
	}
	e.seq++
	heap.Push(&e.events, &event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d after the current virtual time.
//
//mpmd:coldpath the event record is discrete-event engine machinery; wall-clock machines deliver without the engine
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// Proc is a simulated process: a goroutine whose execution is interleaved
// with all other processes in virtual-time order. Methods on Proc must only
// be called from within the process's own function, except Unpark, which may
// be called from anywhere inside the simulation (another process or an event
// callback).
type Proc struct {
	eng    *Engine
	id     int64
	name   string
	resume chan struct{}

	parked bool // waiting for Unpark
	permit bool // Unpark arrived before Park
	dead   bool

	// blockedAt records the virtual time at which the proc last parked;
	// useful in deadlock reports.
	blockedAt Time
}

// Name returns the debug name given at Go time.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Go creates a process running fn and schedules it to start at the current
// virtual time. It may be called before Run or from inside the simulation.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	e.procSeq++
	p := &Proc{
		eng:    e,
		id:     e.procSeq,
		name:   name,
		resume: make(chan struct{}),
	}
	e.procs[p.id] = p
	e.live++
	go func() {
		<-p.resume // wait for first dispatch
		fn(p)
		p.dead = true
		e.live--
		delete(e.procs, p.id)
		e.yield <- struct{}{} // return control to engine for good
	}()
	e.At(e.now, func() { e.dispatch(p) })
	return p
}

// dispatch transfers control to p until it parks, sleeps, or finishes.
// Must be called from the engine loop (directly or transitively from an
// event callback).
func (e *Engine) dispatch(p *Proc) {
	if p.dead {
		panic("sim: dispatch of dead proc " + p.name)
	}
	p.resume <- struct{}{}
	<-e.yield
}

// switchToEngine suspends the calling process and resumes the engine loop.
// The process will not run again until something sends on p.resume.
func (p *Proc) switchToEngine() {
	p.eng.yield <- struct{}{}
	<-p.resume
}

// Sleep advances the process's virtual time by d. Other processes and events
// run in the interim. d must be non-negative; Sleep(0) yields to any events
// scheduled at the current instant that were enqueued before this one.
//
//mpmd:coldpath the timer closure is discrete-event engine machinery, not a modeled allocation
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v in proc %s", d, p.name))
	}
	e := p.eng
	e.After(d, func() { e.dispatch(p) })
	p.switchToEngine()
}

// Deliver implements the transport seam's delivery point, which the engine
// does not need: arrivals are events, and they run while a process sleeps.
func (p *Proc) Deliver() {}

// Park blocks the process until Unpark is called. If an Unpark permit is
// already pending (Unpark raced ahead in virtual sequence), Park consumes it
// and returns immediately. This mirrors gopark/goready semantics and makes
// wait loops robust against wake-before-sleep orderings.
func (p *Proc) Park() {
	if p.permit {
		p.permit = false
		return
	}
	p.parked = true
	p.blockedAt = p.eng.now
	p.switchToEngine()
}

// Unpark makes a parked process runnable at the current virtual time. If the
// process is not parked, a single permit is recorded and the next Park
// returns immediately. Safe to call from event callbacks or other processes.
//
//mpmd:coldpath the dispatch closure is discrete-event engine machinery, not a modeled allocation
func (p *Proc) Unpark() {
	if p.dead {
		panic("sim: Unpark of dead proc " + p.name)
	}
	if !p.parked {
		p.permit = true
		return
	}
	p.parked = false
	e := p.eng
	e.At(e.now, func() { e.dispatch(p) })
}

// DeadlockError reports that the event queue drained while processes were
// still parked — the simulation cannot make further progress.
type DeadlockError struct {
	Now   Time
	Procs []string // names of parked processes, sorted
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%v: %d proc(s) parked: %v", d.Now, len(d.Procs), d.Procs)
}

// Run processes events until the queue is empty. If parked processes remain
// at that point, Run returns a *DeadlockError naming them; otherwise nil.
func (e *Engine) Run() error {
	return e.run(-1)
}

// RunUntil processes events with timestamps <= limit and then stops, leaving
// later events queued. It never reports deadlock (the simulation may simply
// be paused).
func (e *Engine) RunUntil(limit Time) error {
	return e.run(limit)
}

func (e *Engine) run(limit Time) error {
	if e.inEngine {
		panic("sim: Run called reentrantly")
	}
	e.inEngine = true
	defer func() { e.inEngine = false }()

	for len(e.events) > 0 {
		if limit >= 0 && e.events[0].at > limit {
			return nil
		}
		ev := heap.Pop(&e.events).(*event)
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		e.eventsRun++
		ev.fn()
	}
	if limit < 0 && e.live > 0 {
		var names []string
		for _, p := range e.procs {
			names = append(names, fmt.Sprintf("%s@%v", p.name, p.blockedAt))
		}
		sort.Strings(names)
		return &DeadlockError{Now: e.now, Procs: names}
	}
	return nil
}
