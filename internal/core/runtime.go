package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/am"
	"repro/internal/machine"
	"repro/internal/tham"
	"repro/internal/threads"
	"repro/internal/transport"
)

// GPtr is a CC++ global pointer to a processor object. Unlike Split-C's
// global pointers, it is opaque: applications cannot see or compute with the
// address part; all access goes through RMI.
type GPtr struct {
	node int32
	obj  int32
	cls  *Class
}

// NilGPtr is the zero global pointer.
var NilGPtr = GPtr{node: -1, obj: -1}

// Nil reports whether the pointer is the nil global pointer. The zero GPtr
// value also counts as nil (it carries no class).
func (g GPtr) Nil() bool { return g.node < 0 || g.cls == nil }

// NodeID exposes the placement of the object; CC++ programs may ask an
// object where it lives (the runtime knows), they just cannot forge pointers.
func (g GPtr) NodeID() int { return int(g.node) }

// String formats the pointer for debugging.
func (g GPtr) String() string { return fmt.Sprintf("gptr{n%d:o%d}", g.node, g.obj) }

// ClassName reports the registered class of the pointed-to object ("" for a
// nil/zero pointer). The typed façade uses it to validate lifted pointers.
func (g GPtr) ClassName() string {
	if g.cls == nil {
		return ""
	}
	return g.cls.Name
}

// IsClass reports whether the pointer's class is exactly c — pointer
// identity, not name equality, so a GPtr from a different runtime (whose
// same-named class is a distinct registration) does not pass. The typed
// façade uses it to validate lifted pointers.
func (g GPtr) IsClass(c *Class) bool { return g.cls != nil && g.cls == c }

// Method describes one remotely invocable method of a Class — the
// registration-time stand-in for the stubs CC++'s translator generates.
type Method struct {
	// Name is the unqualified method name.
	Name string
	// Threaded makes the receiving node run the method on a fresh thread
	// (required whenever the method may block). Non-threaded methods run
	// inline in the handler and must not block: on a wall-clock machine the
	// handler may run in the node's interrupt context, on the sender's
	// goroutine (am.Endpoint), where a block panics naming that context.
	Threaded bool
	// Atomic runs the method holding the target object's lock; per the
	// paper's micro-benchmarks, atomic implies a threaded invocation.
	Atomic bool
	// NewArgs returns fresh argument instances for the receiving stub to
	// decode into; nil means the method takes no arguments.
	NewArgs func() []Arg
	// NewRet returns a fresh return-value instance; nil means no result.
	NewRet func() Arg
	// Fn is the method body. self is the target object; ret (when non-nil)
	// must be filled in before returning. The runtime recycles args and ret
	// instances across invocations of the method, so Fn must not retain
	// references to them (or to slices inside them, such as a F64Slice's V)
	// beyond the call — copy the contents out instead.
	Fn func(t *threads.Thread, self any, args []Arg, ret Arg)
}

// Class is a processor-object class: a constructor plus its remotely
// invocable methods.
type Class struct {
	Name    string
	New     func() any
	Methods []*Method
}

// boundMethod pairs a method with its class and machine-wide stub identity.
type boundMethod struct {
	class *Class
	m     *Method
	qname string
	hash  tham.NameHash
	stub  tham.StubID

	// frames recycles receiver-side decode records (argument instances plus
	// the return-value instance) across invocations of this method — the
	// in-memory counterpart of the persistent R-buffers: reflection-free,
	// allocation-free dispatch on the warm path. Methods must not retain
	// args or ret beyond the call (see Method.Fn).
	frames sync.Pool
}

// argFrame is one pooled decode record of a boundMethod.
type argFrame struct {
	args []Arg
	ret  Arg
}

// Options configure the runtime; the zero value is the paper's tuned
// configuration. The Disable* switches exist for the ablation benchmarks of
// the paper's §4 design choices.
type Options struct {
	// DisableStubCache forces every RMI down the cold name-resolution path.
	DisableStubCache bool
	// DisablePersistentBuffers forces the receiver staging copy (static
	// buffer area -> fresh R-buffer) on every invocation. The copy is a
	// charge: a wall-clock machine would change only counters and refuses it.
	DisablePersistentBuffers bool
	// SpinSenders makes blocking calls spin-poll instead of handing off to
	// the polling thread (the "Simple" sender mode applied globally). It
	// selects between the simulator's two modelled sender paths; a wall-clock
	// machine has one wait and refuses it.
	SpinSenders bool
	// InterruptDriven switches message reception from polling to software
	// interrupts, charging Config.InterruptCost per received message — the
	// alternative the paper rejects for 1997 hardware and projects as future
	// work once interrupts get cheap. A wall-clock machine refuses it: it
	// switches off poll-on-send, and nothing there interrupts in its place.
	InterruptDriven bool
	// Nexus prices every message as the original CC++ implementation's
	// message layer did — CC++ v0.4 over Nexus v3.0 on TCP/IP over the SP
	// switch, the paper's §6 comparison: protocol-stack CPU on both sides
	// (Config.NexusPerMsgCPU), the slow path through the switch
	// (Config.NexusLatency) and TCP's per-byte occupancy
	// (Config.NexusGapPerByte). The messages, handlers and semantics are the
	// ThAM runtime's: the 5-35x application gaps the paper reports follow from
	// these per-message constants, not from any structural change.
	Nexus bool
}

// Runtime is one CC++ program instance over a machine.
type Runtime struct {
	m    *machine.Machine
	net  *am.Net
	opts Options

	// pollWait is set on the backends that ignore modelled time (live,
	// netlive): a thread waiting for a completion polls for it itself
	// (waitComp). The simulator keeps the paper's two sender modes, whose
	// difference is a row of Table 4.
	pollWait bool

	classes map[string]*Class
	methods []*boundMethod // indexed by StubID (identical on all nodes)

	nodes []*nodeRT
	progs []func(t *threads.Thread)

	// local holds the nodes of this address space once Run starts, and
	// mainsLeft their programs still running (the last mains of different
	// nodes race to decrement it).
	local     []*nodeRT
	mainsLeft atomic.Int32

	// started flips when Run begins; registration is setup-time only.
	started atomic.Bool

	// ext is the extension slot for layers above the untyped runtime, keyed
	// by layer: the typed API's derived method tables and codecs, the
	// collective layer's engine. Entries are installed at setup time and only
	// read once the program runs.
	ext map[string]any

	hInvoke, hResolveUpdate am.HandlerID
	hReply                  am.HandlerID

	// mem is the runtime's remote memory: the array table every Dist and GP
	// access names, and the protocol that serves them (dist.go).
	mem *am.Mem
}

// nodeRT is the per-node runtime state.
type nodeRT struct {
	rt    *Runtime
	node  *machine.Node
	ep    *am.Endpoint
	sched *threads.Scheduler

	reg   *tham.Registry
	cache *tham.StubCache
	bufs  *tham.BufMgr
	objs  tham.ObjTable

	// pending holds the node's in-flight RMIs, whose replies name them by
	// slot in the message words.
	pending am.ReqTable[Future]

	objLocks map[int32]*threads.Mutex
}

// NewRuntime builds a CC++ runtime over machine m with default options.
func NewRuntime(m *machine.Machine) *Runtime { return NewRuntimeOpts(m, Options{}) }

// NewRuntimeOpts builds a CC++ runtime with explicit options.
func NewRuntimeOpts(m *machine.Machine, opts Options) *Runtime {
	for _, o := range []struct {
		on        bool
		name, why string
	}{
		{opts.SpinSenders, "SpinSenders", "a wall-clock machine has one wait, so there is no sender path to select"},
		{opts.InterruptDriven, "InterruptDriven", "it switches off poll-on-send, and nothing interrupts in its place"},
		{opts.DisablePersistentBuffers, "DisablePersistentBuffers", "it changes only counters"},
	} {
		if o.on && m.Eng == nil {
			panic("core: Options." + o.name + " on a wall-clock machine: " + o.why)
		}
	}
	// What every message costs beyond the Active Messages profile: nothing
	// for ThAM, the Nexus/TCP surcharges under Nexus, a kernel delivery per
	// message under InterruptDriven.
	var p am.Profile
	if opts.Nexus {
		p = am.Profile{
			ExtraSendCPU: m.Cfg.NexusPerMsgCPU,
			ExtraWire:    m.Cfg.NexusLatency - m.Cfg.WireLatency,
			ExtraRecvCPU: m.Cfg.NexusPerMsgCPU,
			GapPerByte:   m.Cfg.NexusGapPerByte,
		}
	}
	if opts.InterruptDriven {
		p.InterruptCost = m.Cfg.InterruptCost
	}
	rt := &Runtime{
		m:        m,
		net:      am.NewNet(m, p),
		opts:     opts,
		pollWait: m.Eng == nil,
		classes:  make(map[string]*Class),
		progs:    make([]func(*threads.Thread), m.NumNodes()),
	}
	for i := 0; i < m.NumNodes(); i++ {
		n := &nodeRT{
			rt:       rt,
			node:     m.Node(i),
			ep:       rt.net.Endpoint(i),
			sched:    threads.NewScheduler(m.Node(i)),
			reg:      tham.NewRegistry(),
			cache:    tham.NewStubCache(),
			bufs:     tham.NewBufMgr(i),
			objLocks: make(map[int32]*threads.Mutex),
		}
		n.ep.Attach(n.sched)
		rt.nodes = append(rt.nodes, n)
	}
	rt.registerHandlers()
	rt.RegisterClass(rt.sysClass())
	for i := range rt.nodes {
		// Object 0 on every node is the system object (object creation).
		gp := rt.CreateObject(i, sysClassName)
		if gp.obj != 0 {
			panic("core: system object must be object 0")
		}
	}
	return rt
}

// Machine returns the underlying machine.
func (rt *Runtime) Machine() *machine.Machine { return rt.m }

// Started reports whether Run has begun. Class registration and object
// placement are setup-time operations; the typed façade checks this to turn
// late registrations and pre-run invocations into errors.
func (rt *Runtime) Started() bool { return rt.started.Load() }

// HasClass reports whether a class name is already registered — the
// non-panicking existence check the typed façade validates against before
// calling RegisterClass.
func (rt *Runtime) HasClass(name string) bool {
	_, ok := rt.classes[name]
	return ok
}

// SetExt stores a higher layer's state on the runtime under that layer's key
// (setup time only: the value must be in place before Run); Ext reads it back
// (nil if absent). The core carries the values opaquely.
func (rt *Runtime) SetExt(key string, v any) {
	if rt.ext == nil {
		rt.ext = make(map[string]any)
	}
	rt.ext[key] = v
}

// Ext returns the value stored under key by SetExt (nil if none).
func (rt *Runtime) Ext(key string) any { return rt.ext[key] }

// Handle registers an active-message handler for a layer above the runtime,
// one that moves words and bytes without method dispatch (the collectives).
// Setup time only: handler IDs come out identical in every program image
// because registration order is.
func (rt *Runtime) Handle(name string, h am.Handler) am.HandlerID {
	if rt.started.Load() {
		panic("core: Handle(" + name + ") after Run started: register all handlers before Run")
	}
	return rt.net.Register(name, h)
}

// Send sends one active message from t's node to handler h on node dst,
// priced by the runtime's net (Options.Nexus): short without a payload, bulk
// with one, which is copied at send time.
func (rt *Runtime) Send(t *threads.Thread, dst int, h am.HandlerID, a [4]uint64, payload []byte) {
	rt.nodeOf(t).ep.Request(t, dst, h, a, payload, len(payload) > 0)
}

// TransportName reports the active message layer ("ThAM" or "Nexus").
func (rt *Runtime) TransportName() string {
	if rt.opts.Nexus {
		return "Nexus"
	}
	return "ThAM"
}

// Scheduler returns node i's thread scheduler.
func (rt *Runtime) Scheduler(i int) *threads.Scheduler { return rt.nodes[i].sched }

// StubCacheStats sums the nodes' stub-cache hits and misses (tham.stub.hit,
// tham.stub.miss) in this address space. A call made with the cache disabled
// is a miss.
func (rt *Runtime) StubCacheStats() (hits, misses int64) {
	return rt.sum(machine.CntStubHit), rt.sum(machine.CntStubMiss)
}

// BufStats sums the nodes' receive-buffer allocations and persistent-buffer
// reuses (tham.buf.alloc, tham.buf.reuse) in this address space.
func (rt *Runtime) BufStats() (allocs, reuses int64) {
	return rt.sum(machine.CntBufAlloc), rt.sum(machine.CntBufReuse)
}

// sum adds up counter c of rt's nodes.
func (rt *Runtime) sum(c machine.Cnt) (v int64) {
	for _, n := range rt.nodes {
		v += n.node.Acct.Counter(c)
	}
	return v
}

// RegisterClass makes a class invocable. Must be called before Run. Stubs
// are registered into every node's local registry (each program image
// carries its own copy of the code, as in CC++'s separately compiled
// images); stub IDs come out identical everywhere because registration
// order is identical.
func (rt *Runtime) RegisterClass(c *Class) {
	if rt.started.Load() {
		// Post-Run registration would mutate the stub tables node goroutines
		// are concurrently reading (a real data race on the live backend).
		panic("core: RegisterClass(" + c.Name + ") after Run started: register all classes before Run")
	}
	if _, dup := rt.classes[c.Name]; dup {
		panic("core: class registered twice: " + c.Name)
	}
	if c.New == nil {
		panic("core: class " + c.Name + " has no constructor")
	}
	rt.classes[c.Name] = c
	for _, m := range c.Methods {
		m := m
		qname := c.Name + "::" + m.Name
		bm := &boundMethod{class: c, m: m, qname: qname, hash: tham.HashName(qname)}
		bm.frames.New = func() any {
			f := &argFrame{}
			if m.NewArgs != nil {
				f.args = m.NewArgs()
			}
			if m.NewRet != nil {
				f.ret = m.NewRet()
			}
			return f
		}
		var stub tham.StubID
		for _, n := range rt.nodes {
			stub = n.reg.Register(qname)
		}
		bm.stub = stub
		if int(stub) != len(rt.methods) {
			panic("core: stub id mismatch across nodes")
		}
		rt.methods = append(rt.methods, bm)
	}
}

// CreateObject instantiates className's class on the given node at setup
// time (no virtual cost) and returns a global pointer to it. For creation
// from inside a running program, use NewObjOn, which performs a real RMI.
func (rt *Runtime) CreateObject(node int, className string) GPtr {
	if rt.started.Load() {
		// Mid-run creation from an arbitrary context would mutate a node's
		// object table without owning its execution context; the supported
		// mid-run path is NewObjOn (an RMI serviced by the owner).
		panic("core: CreateObject(" + className + ") after Run started: use NewObjOn from inside the program")
	}
	return rt.createObject(node, className)
}

// createObject is the unguarded creation path: used at setup, and mid-run
// only from contexts that own the target node's state (the system object's
// "create" handler runs on the owning node).
func (rt *Runtime) createObject(node int, className string) GPtr {
	c, ok := rt.classes[className]
	if !ok {
		panic("core: unknown class " + className)
	}
	n := rt.nodes[node]
	id := n.objs.Add(c.New())
	return GPtr{node: int32(node), obj: id, cls: c}
}

// Object returns the live object behind a global pointer (test/inspection
// use; programs go through RMI).
func (rt *Runtime) Object(gp GPtr) any { return rt.nodes[gp.node].objs.Get(gp.obj) }

// OnNode installs the program to run on node i. Nodes without programs run
// only the runtime's polling thread — the MPMD "server" configuration.
func (rt *Runtime) OnNode(i int, prog func(t *threads.Thread)) {
	if rt.progs[i] != nil {
		panic(fmt.Sprintf("core: node %d already has a program", i))
	}
	rt.progs[i] = prog
}

// Run starts the polling thread on every local node plus the installed node
// programs, and drives the machine until completion. The run ends when its
// work does: once the programs have returned, a node that goes idle collects
// the machine's Counts, and when two consecutive collections are equal and
// balanced, nothing was in flight and nothing could run at one instant between
// them (Mattern's four-counter method), so each endpoint stops in its own
// node's context. A message left in an inbox then is an error naming it.
//
// On a sharded backend (transport.Sharded) only this shard's nodes run here,
// the other shards' processes build the identical runtime (the SPMD launch
// model), and the backend collects the counts across the shards (Quiesce).
func (rt *Runtime) Run() error {
	topo, sharded := rt.m.Backend().(transport.Sharded)
	if !slices.ContainsFunc(rt.progs, func(p func(*threads.Thread)) bool { return p != nil }) {
		// No programs anywhere: nothing would ever terminate the run.
		return fmt.Errorf("core: no node programs installed")
	}
	rt.started.Store(true)
	idle := rt.idle
	if sharded {
		idle = topo.Quiesce(rt.tally, rt.stop)
	}
	for i, n := range rt.nodes {
		if sharded && !topo.IsLocal(i) {
			continue
		}
		rt.local = append(rt.local, n)
		threads.OnIdle(n.sched, idle)
		// "In order to avoid deadlocks when there is no runnable thread, a
		// polling thread is forked at initialization." (§4)
		n.sched.Start("poller", func(t *threads.Thread) { rt.pollerLoop(t, n) })
		if prog := rt.progs[i]; prog != nil {
			rt.mainsLeft.Add(1)
			n.sched.Start("main", func(t *threads.Thread) {
				prog(t)
				rt.mainsLeft.Add(-1)
			})
		}
	}
	return errors.Join(rt.m.Run(), rt.net.Unhandled())
}

// Counts sums the messages sent and handled and the threads made runnable and
// blocked or exited of rt's nodes in this address space, as their accounting
// counts them: a function, so that the public API, which aliases Runtime,
// does not offer it.
func Counts(rt *Runtime) (c [4]uint64) {
	for _, n := range rt.nodes {
		a := n.node.Acct
		c[0] += uint64(a.Counter(machine.CntMsgShort) + a.Counter(machine.CntMsgBulk))
		c[1] += uint64(a.Counter(machine.CntHandlersRun))
		c[2] += uint64(a.Counter(machine.CntThreadReadied))
		c[3] += uint64(a.Counter(machine.CntThreadParked))
	}
	return c
}

// tally reads Counts once this address space's programs have returned, ok
// when none of its threads, pollers included, can run: its nodes are idle.
// Until then it is one atomic load.
func (rt *Runtime) tally() (c [4]uint64, ok bool) {
	if rt.mainsLeft.Load() != 0 {
		return c, false
	}
	c = Counts(rt)
	return c, c[2] == c[3]
}

// idle is OnIdle on a single address space: two consecutive collections,
// equal and balanced, end the run.
func (rt *Runtime) idle() {
	if c, ok := rt.tally(); ok && c[0] == c[1] && c == Counts(rt) {
		rt.stop()
	}
}

// stop ends the run: each local endpoint is asked to stop in its own node's
// context (a second stop, from a node that found the end as well, asks again).
func (rt *Runtime) stop() {
	for _, n := range rt.local {
		n.ep.Stop()
	}
}

// pollerLoop is the per-node polling thread: service everything pending,
// then park until the next arrival. Parking hands the CPU to whichever
// thread the handlers made ready (the scheduler dispatches on block), so the
// poller never busy-yields against a spinning computation thread. It is the
// node's oldest message waiter, so on the wall-clock backends it receives
// only what no waiting caller is there to receive: requests, and replies to
// futures nobody has joined yet.
func (rt *Runtime) pollerLoop(t *threads.Thread, n *nodeRT) {
	for {
		n.ep.PollAll(t)
		if n.ep.Stopped() {
			n.ep.PollAll(t)
			return
		}
		n.ep.WaitMessage(t)
	}
}

// nodeOf returns the per-node state for the node t runs on.
func (rt *Runtime) nodeOf(t *threads.Thread) *nodeRT { return rt.nodes[t.Node().ID] }

// lockPair is the thread-safety tax the paper's runtime paid on its stub
// cache, buffer pool and message layer: a lock/unlock pair, "98-99% of [sync]
// overhead". Nothing blocks between the halves and a node runs one thread at
// a time, so no pair is ever contended: only the simulator charges it.
func lockPair(t *threads.Thread) {
	t.ChargeSyncOps(2)
}
