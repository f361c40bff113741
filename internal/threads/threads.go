// Package threads implements the lightweight, non-preemptive threads package
// the paper's CC++ runtime is built on, as cooperative green threads over the
// transport backend's schedulable contexts (simulated processes on the
// calibrated simnet backend, real goroutines on the live backend).
//
// Each machine node owns one Scheduler. A thread runs until it yields,
// blocks, or exits; the scheduler then dispatches the next ready thread.
// Every operation charges its calibrated virtual-time cost (Config.ThreadCreate,
// Config.ContextSwitch, Config.SyncOp) to the node's accounting and bumps the
// corresponding counter, which is exactly how the paper reconstructs the
// "Threads" columns of its Table 4 (counts × unit costs); see Charge. The
// scheduler keeps no count of its own: it bumps its node's thread.readied
// whenever a thread is made runnable, thread.parked whenever one blocks or
// exits, and thread.interrupts per run of the interrupt context, all in the
// node's accounting, where the end of a run reads them.
package threads

import (
	"fmt"
	"time"

	"repro/internal/machine"
	"repro/internal/transport"
)

// State is a thread's lifecycle state.
type State int

const (
	// Ready means queued, waiting for the CPU.
	Ready State = iota
	// Running means currently executing on the node's CPU.
	Running
	// Blocked means waiting on a mutex, condition, sync variable, or
	// message arrival.
	Blocked
	// Dead means the thread function returned.
	Dead
)

func (s State) String() string {
	switch s {
	case Ready:
		return "ready"
	case Running:
		return "running"
	case Blocked:
		return "blocked"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Scheduler multiplexes cooperative threads onto one node's CPU.
type Scheduler struct {
	node     *machine.Node
	ready    []*Thread
	current  *Thread
	nlive    int
	seq      int
	modelled bool // read once: on the simulator a charge is virtual time

	// onIdle runs in the node's context whenever it goes idle.
	onIdle func()

	// intr is the node's interrupt record (Interrupt).
	intr *Thread
}

// OnIdle makes fn run in s's node's context whenever the node goes idle. It
// is a function, for the runtime's end of the run, so that the public API,
// which hands out Schedulers, does not offer it.
func OnIdle(s *Scheduler, fn func()) { s.onIdle = fn }

// NewScheduler creates the scheduler for a node. Exactly one scheduler per
// node should exist; runtimes create it during initialization.
func NewScheduler(node *machine.Node) *Scheduler {
	s := &Scheduler{node: node, modelled: node.M.Eng != nil, onIdle: func() {}}
	s.intr = &Thread{s: s, name: fmt.Sprintf("n%d/interrupt", node.ID), state: Blocked}
	s.intr.p = intrProc{s.intr}
	return s
}

// Node returns the node this scheduler runs on.
func (s *Scheduler) Node() *machine.Node { return s.node }

// ReadyLen reports how many threads are queued ready.
func (s *Scheduler) ReadyLen() int { return len(s.ready) }

// Live reports how many threads exist (ready, running, or blocked).
func (s *Scheduler) Live() int { return s.nlive }

// Idle reports whether no thread runs on the node: none will until something
// is made ready.
func (s *Scheduler) Idle() bool { return s.current == nil }

// Interrupt enters the idle node's interrupt context and returns its
// interrupt record: a Thread that no goroutine backs, run by whichever
// goroutine holds the node's CPU — a sender that found the node idle. Until
// EndInterrupt it is the node's running thread, so a thread that Spawn or
// MakeReady readies meanwhile is queued, to run once the interrupt ends. It
// counts as an interrupt and as made runnable here, and as blocked at its
// end, so the node's thread.readied and thread.parked stay balanced. A charge
// in it takes no time (on a wall-clock machine, where interrupts are taken, a
// charge is not even accounted), and it cannot block: Block, and a Yield that
// would switch, panic naming the interrupt context before any scheduler state
// changes.
func (s *Scheduler) Interrupt() *Thread {
	if s.current != nil {
		panic("threads: Interrupt of node " + fmt.Sprint(s.node.ID) + " while " + s.current.name + " runs")
	}
	s.node.Acct.Count(machine.CntThreadReadied, 1)
	s.node.Acct.Count(machine.CntInterrupts, 1)
	s.intr.state = Running
	s.current = s.intr
	return s.intr
}

// EndInterrupt leaves the interrupt context Interrupt entered, dispatching
// the first thread it readied, if any; otherwise the node is idle again.
func (s *Scheduler) EndInterrupt() {
	s.intr.mustBeRunning("EndInterrupt")
	s.intr.state = Blocked
	s.node.Acct.Count(machine.CntThreadParked, 1)
	if next := s.popReady(); next != nil {
		s.runNext(next)
		return
	}
	s.current = nil
}

// intrProc is the interrupt record's Proc. No goroutine runs it: it never
// parks, and has no deliveries of its own to run (the CPU's holder runs them
// when it lets go).
type intrProc struct{ t *Thread }

func (p intrProc) Park()               { p.t.mustNotBlock("Park") }
func (p intrProc) Unpark()             { p.t.mustNotBlock("Unpark") }
func (p intrProc) Sleep(time.Duration) {}
func (p intrProc) Deliver()            {}
func (p intrProc) Name() string        { return p.t.name }

// mustNotBlock panics if t is its node's interrupt record, which op would
// block.
func (t *Thread) mustNotBlock(op string) {
	if t == t.s.intr {
		panic(fmt.Sprintf("threads: %s in node %d's interrupt context: a handler run on arrival must not block (run a method that may block on a thread of its own)", op, t.s.node.ID))
	}
}

// Thread is one cooperative thread of control.
type Thread struct {
	s    *Scheduler
	p    transport.Proc
	name string

	state State
}

// Name returns the debug name.
func (t *Thread) Name() string { return t.name }

// State returns the lifecycle state.
func (t *Thread) State() State { return t.state }

// Scheduler returns the owning scheduler.
func (t *Thread) Scheduler() *Scheduler { return t.s }

// Node returns the node the thread runs on.
func (t *Thread) Node() *machine.Node { return t.s.node }

// Cfg returns the machine cost configuration (read-only; see Node.Cfg).
func (t *Thread) Cfg() *machine.Config { return t.s.node.Cfg() }

// Now returns the machine's clock (its backend's): virtual time on the
// simulator, wall-clock time on the live backend.
func (t *Thread) Now() time.Duration { return t.s.node.M.Now() }

// Deliver is the thread's delivery point (Proc.Deliver): am runs it per poll.
func (t *Thread) Deliver() { t.p.Deliver() }

func (s *Scheduler) popReady() *Thread {
	if len(s.ready) == 0 {
		return nil
	}
	t := s.ready[0]
	copy(s.ready, s.ready[1:])
	s.ready = s.ready[:len(s.ready)-1]
	return t
}

// newThread builds the thread object and its backing proc. The proc
// immediately parks, waiting for its first dispatch.
func (s *Scheduler) newThread(name string, fn func(*Thread)) *Thread {
	s.seq++
	t := &Thread{s: s, name: fmt.Sprintf("n%d/%s#%d", s.node.ID, name, s.seq)}
	s.nlive++
	t.p = s.node.M.Backend().Go(s.node.ID, t.name, func(p transport.Proc) {
		p.Park() // wait for first dispatch
		fn(t)
		t.exit()
	})
	return t
}

// Start creates and enqueues a thread without charging creation cost; it is
// the bootstrap entry point used before the simulation begins (the "main"
// thread of each node, the runtime's service threads at init).
func (s *Scheduler) Start(name string, fn func(*Thread)) *Thread {
	t := s.newThread(name, fn)
	s.makeReadyNoCharge(t)
	return t
}

// Spawn forks a new thread from a running thread, charging the configured
// creation cost to the node and counting it. The new thread is enqueued
// ready; the caller keeps the CPU (threads run to completion until they
// yield or block, as in the paper's non-preemptive package).
func (t *Thread) Spawn(name string, fn func(*Thread)) *Thread {
	t.mustBeRunning("Spawn")
	t.Charge(machine.CatThreadMgmt, t.Cfg().ThreadCreate)
	t.s.node.Acct.Count(machine.CntThreadCreate, 1)
	t.s.node.M.Emit(t.s.node.ID, "spawn", name, 0)
	nt := t.s.newThread(name, fn)
	t.s.makeReadyNoCharge(nt)
	return nt
}

func (t *Thread) mustBeRunning(op string) {
	if t.s.current != t || t.state != Running {
		panic(fmt.Sprintf("threads: %s called on %s which is %s (current=%v)",
			op, t.name, t.state, currentName(t.s)))
	}
}

func currentName(s *Scheduler) string {
	if s.current == nil {
		return "<idle>"
	}
	return s.current.name
}

// Charge advances virtual time by d and attributes it to category c on the
// node's accounting. Other nodes' events proceed during the charge; no other
// thread on this node can run (the CPU is held). On a wall-clock machine a
// charge is not work — running the code paid it — and is not accounted.
func (t *Thread) Charge(c machine.Category, d time.Duration) {
	if d != 0 && t.s.modelled {
		t.charge(c, d)
	}
}

func (t *Thread) charge(c machine.Category, d time.Duration) {
	t.s.node.Acct.Add(c, d)
	t.p.Sleep(d)
	if t.s.node.M.Trace != nil {
		t.s.node.M.Emit(t.s.node.ID, "charge", c.String(), d)
	}
}

// Compute charges application CPU time.
func (t *Thread) Compute(d time.Duration) { t.Charge(machine.CatCPU, d) }

// ChargeFlops charges n floating-point operations at the configured rate.
func (t *Thread) ChargeFlops(n int) {
	t.Charge(machine.CatCPU, time.Duration(n)*t.Cfg().FlopCost)
}

// chargeSync charges one synchronization operation (lock/unlock/signal/sync
// variable access) and counts it.
func (t *Thread) chargeSync() {
	t.s.node.Acct.Count(machine.CntSyncOp, 1)
	t.Charge(machine.CatThreadSync, t.Cfg().SyncOp)
}

// ChargeSyncOps charges and counts n synchronization operations a runtime
// models but does not perform; a wall-clock machine neither charges nor counts.
func (t *Thread) ChargeSyncOps(n int) {
	for i := 0; i < n && t.s.modelled; i++ {
		t.chargeSync()
	}
}

// chargeSwitch charges one context switch and counts it.
//
// Accounting policy (matches the thread-op counts the paper reports in
// Table 4): a switch is charged only on a genuine thread-to-thread CPU
// handoff — a yield to a ready peer, or a block that dispatches a ready
// peer. Dispatch after a thread exits (no context to save) and dispatch out
// of the scheduler's idle loop (no context to restore from) are free.
func (t *Thread) chargeSwitch() {
	t.s.node.Acct.Count(machine.CntContextSwitch, 1)
	t.Charge(machine.CatThreadMgmt, t.Cfg().ContextSwitch)
	if t.s.node.M.Trace != nil {
		t.s.node.M.Emit(t.s.node.ID, "switch", t.name, 0)
	}
}

// Yield gives up the CPU if another thread is ready, charging one context
// switch; with no other ready thread it returns immediately at zero cost
// (the paper's package only pays on a real switch).
func (t *Thread) Yield() {
	t.mustBeRunning("Yield")
	if len(t.s.ready) == 0 {
		return
	}
	t.mustNotBlock("Yield")
	next := t.s.popReady()
	t.state = Ready
	t.s.ready = append(t.s.ready, t)
	t.chargeSwitch()
	t.s.runNext(next)
	t.p.Park()
	t.state = Running
}

// Block suspends the thread until MakeReady is called on it. The caller is
// responsible for having registered the thread somewhere it will be woken
// from (mutex waiter list, sync variable, message arrival list). A context
// switch is charged if another thread takes over.
func (t *Thread) Block() {
	t.mustBeRunning("Block")
	t.mustNotBlock("Block")
	t.state = Blocked
	t.leave(true)
	t.p.Park()
	t.state = Running
}

// leave hands the CPU of t, which blocked or exited, to the next ready thread
// (a switch, if charged) or leaves the node idle (OnIdle).
func (t *Thread) leave(switched bool) {
	t.s.node.Acct.Count(machine.CntThreadParked, 1)
	if next := t.s.popReady(); next != nil {
		if switched {
			t.chargeSwitch()
		}
		t.s.runNext(next)
		return
	}
	t.s.current = nil
	t.s.onIdle()
}

// runNext installs next as the running thread and unparks its process.
func (s *Scheduler) runNext(next *Thread) {
	next.state = Running
	s.current = next
	next.p.Unpark()
}

// makeReadyNoCharge enqueues a freshly created thread (state Ready via zero
// value quirk: new threads report Ready before first dispatch) without
// charging a context switch, dispatching immediately if the node is idle.
func (s *Scheduler) makeReadyNoCharge(t *Thread) {
	s.node.Acct.Count(machine.CntThreadReadied, 1)
	if s.current == nil {
		s.runNext(t)
		return
	}
	t.state = Ready
	s.ready = append(s.ready, t)
}

// MakeReady marks a blocked thread runnable. If the node is idle the thread
// is dispatched immediately (paying its context switch upon resumption);
// otherwise it joins the ready queue. Safe to call from event callbacks
// (message arrivals) and from other threads on the same node.
func (s *Scheduler) MakeReady(t *Thread) {
	switch t.state {
	case Dead:
		panic("threads: MakeReady on dead thread " + t.name)
	case Running:
		panic("threads: MakeReady on running thread " + t.name)
	case Ready:
		return // already queued (benign double wake)
	}
	s.node.Acct.Count(machine.CntThreadReadied, 1)
	if s.current == nil {
		s.runNext(t)
		return
	}
	t.state = Ready
	s.ready = append(s.ready, t)
}

// exit terminates the thread, dispatching the next ready thread if any.
func (t *Thread) exit() {
	t.mustBeRunning("exit")
	t.state = Dead
	t.s.nlive--
	t.leave(false) // dispatch after an exit has no context to save: no switch
	// The sim proc returns after this, handing control to the engine.
}
