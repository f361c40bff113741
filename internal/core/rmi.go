package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/am"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/tham"
	"repro/internal/threads"
	"repro/internal/wire"
)

// callMode selects how the initiator of an RMI waits for completion.
type callMode int

const (
	// modeSpin: the calling thread itself polls the network until the reply
	// lands — the paper's "0-Word Simple" fast path with no thread switches.
	modeSpin callMode = iota
	// modeBlock: the caller blocks on a sync variable and the polling
	// thread completes it — the paper's standard sender path.
	modeBlock
	// modeFuture: the call returns immediately; Future.Wait joins later.
	// (A one-way call, fire-and-forget with no reply at all, has no record
	// and so no mode.)
	modeFuture
)

// invocation flag bits (wire word A[0]).
const (
	flagCold      = 1 << 0
	flagWantReply = 1 << 1
)

// Future is the sender-side record of one request, and the join handle of an
// asynchronous one: an RMI's (held in the node's pending table while its
// reply is on the way) or, inside a DistOp, a remote-memory access's. It
// never travels — the request carries its slot in the sender's table, packed
// into the word arguments, and the reply echoes it, exactly the request-ID
// table real hardware uses. Everything the receiver needs resolves from the
// wire words on the destination side: the object from its object table, the
// method from its stub registry, the persistent R-buffer from its buffer
// table. The reply advances done past base; a pooled record moves base up to
// be reused.
type Future struct {
	rt   *Runtime
	mode callMode
	done am.Count
	base uint64
	sv   threads.SyncVar
	ret  Arg
	// t0 is the send instant on the backend clock, set only when the node
	// has a wall-clock metrics registry (live backends); the reply handler
	// turns it into an RMI round-trip latency observation. Zero means "not
	// timed" (simulator, or a remote-memory access, which am.Op times).
	t0 time.Duration
}

// futures pools the records of synchronous RMIs, recycled once the caller
// has observed the reply — the warm path's stand-in for the per-call-site
// records a CC++ stub would keep next to the stub cache. An asynchronous
// call's record is its caller's, and a one-way call has none.
var futures = sync.Pool{New: func() any { return new(Future) }}

// Wait blocks until the reply has landed. On the simulator it reads the
// record's sync variable, which the polling thread writes; on the wall-clock
// backends the waiting thread polls the network itself (waitComp).
func (f *Future) Wait(t *threads.Thread) { f.rt.waitComp(t, f.rt.nodeOf(t), f) }

// Done reports (without blocking) whether the reply has landed.
func (f *Future) Done() bool { return f.done.Value() > f.base }

// reset readies a landed record for its next use; the sync variable and
// count keep their backing arrays, so a recycled record's wait does not
// allocate.
func (f *Future) reset() {
	f.base = f.done.Value()
	f.sv.Reset()
}

// complete lands the reply: advance the record's count, which readies a
// waiter that a sibling's poll beat to it. On the simulator the paper's
// blocking sender (modeBlock) and a future's joiner (modeFuture) read a sync
// variable instead, and its write is the Table 4 handoff priced here.
//
//mpmd:hotpath
func (rt *Runtime) complete(t *threads.Thread, f *Future) {
	f.done.Advance(t, 1)
	if sv := rt.handoff(f); sv != nil {
		sv.Write(t, nil)
	}
}

// handoff is the sync variable landing f writes after advancing its count:
// on the simulator a blocking sender's or a future's, nil otherwise.
//
//mpmd:hotpath
func (rt *Runtime) handoff(f *Future) *threads.SyncVar {
	if !rt.pollWait && (f.mode == modeBlock || f.mode == modeFuture) {
		return &f.sv
	}
	return nil
}

// Call performs a synchronous RMI: marshal args, transfer, run the method
// remotely, and wait for its completion (and return value, when the method
// declares one; pass the matching ret instance or nil). On the simulator the
// sender blocks on a sync variable and the polling thread drives completion,
// unless the runtime was configured with SpinSenders — the paper's two sender
// paths, priced apart in Table 4. On the wall-clock backends there is one way
// to wait, whatever the mode: the caller polls and parks as its node's
// preferred message waiter, so its reply is handled by the caller itself
// (waitComp).
func (rt *Runtime) Call(t *threads.Thread, gp GPtr, method string, args []Arg, ret Arg) {
	rt.call(t, gp, method, args, ret, rt.syncMode())
}

// syncMode is how a synchronous call's sender waits on the simulator: blocked
// on a sync variable, or spinning under Options.SpinSenders.
func (rt *Runtime) syncMode() callMode {
	if rt.opts.SpinSenders {
		return modeSpin
	}
	return modeBlock
}

// CallSimple performs a synchronous RMI in which the calling thread itself
// polls for the reply: no thread switches at the sender (the paper's
// "0-Word Simple" variant).
func (rt *Runtime) CallSimple(t *threads.Thread, gp GPtr, method string, args []Arg, ret Arg) {
	rt.call(t, gp, method, args, ret, modeSpin)
}

// call is a synchronous RMI whose sender waits as mode says: its record
// comes from the pool and goes back once invoke has seen the reply land.
func (rt *Runtime) call(t *threads.Thread, gp GPtr, method string, args []Arg, ret Arg, mode callMode) {
	f := futures.Get().(*Future)
	f.mode = mode
	rt.invoke(t, gp, method, args, ret, f)
	// The reply handler has run to completion on this node's CPU, so nothing
	// references the record any more; the caller discards the return value.
	f.rt, f.ret, f.t0 = nil, nil, 0
	f.reset()
	futures.Put(f)
}

// CallAsync starts an RMI and returns a Future to join on. ret, if non-nil,
// is filled in by the time Wait returns.
func (rt *Runtime) CallAsync(t *threads.Thread, gp GPtr, method string, args []Arg, ret Arg) *Future {
	f := new(Future)
	StartCall(rt, t, gp, method, args, ret, f)
	return f
}

// StartCall is CallAsync into a zero record the caller holds: the typed
// layer's future carries its record inside, so the call allocates nothing of
// its own. A function, so that the public API, which aliases Runtime, does
// not offer it.
func StartCall(rt *Runtime, t *threads.Thread, gp GPtr, method string, args []Arg, ret Arg, f *Future) {
	f.mode = modeFuture
	rt.invoke(t, gp, method, args, ret, f)
}

// CallOneWay starts an RMI with no completion reply at all (the CC++
// analogue of a one-way store). The method must not declare a return value.
// Nothing waits for the call, so it has no record.
func (rt *Runtime) CallOneWay(t *threads.Thread, gp GPtr, method string, args []Arg) {
	rt.invoke(t, gp, method, args, nil, nil)
}

// invoke is the common sender path. f is the call's record, its mode set —
// the pending table holds it until the reply lands, and a synchronous
// sender waits on it here — or nil for a one-way call.
//
//mpmd:hotpath
func (rt *Runtime) invoke(t *threads.Thread, gp GPtr, method string, args []Arg, ret Arg, f *Future) {
	if gp.Nil() {
		panic("core: RMI through nil global pointer")
	}
	n := rt.nodeOf(t)
	cfg := t.Cfg()
	bm := rt.lookupMethod(gp, method)
	if bm.m.NewRet == nil && ret != nil {
		panic("core: method " + bm.qname + " has no return value")
	}
	if f == nil && bm.m.NewRet != nil {
		panic("core: one-way RMI to method with return value: " + bm.qname)
	}
	if bm.m.NewRet != nil && ret == nil {
		ret = bm.m.NewRet()
	}
	if f != nil {
		f.rt, f.ret = rt, ret
	}
	n.node.Acct.Count(machine.CntRMI, 1)

	// Runtime bookkeeping: the runtime lock's pair.
	lockPair(t)

	// Local invocations short-circuit the network but still pay the
	// global-pointer locality check and dispatch.
	if int(gp.node) == n.node.ID {
		n.node.Acct.Count(machine.CntLocalDeref, 1)
		t.Charge(machine.CatRuntime, cfg.LocalGPDeref+cfg.StubLookup)
		rt.dispatchLocal(t, n, bm, gp, args, ret, f)
		return
	}

	// Method-stub cache lookup (§4: indexed by processor number and method
	// name hash).
	t.Charge(machine.CatRuntime, cfg.StubLookup)
	var entry *tham.CacheEntry
	cold := true
	if !rt.opts.DisableStubCache {
		if e, ok := n.cache.Lookup(int(gp.node), bm.hash); ok {
			entry = e
			cold = false
		}
	}
	if cold {
		n.node.Acct.Count(machine.CntStubMiss, 1)
		n.node.Acct.Count(machine.CntRMICold, 1)
	} else {
		n.node.Acct.Count(machine.CntStubHit, 1)
	}

	// Marshal arguments into the S-buffer: a pooled wire buffer whose
	// ownership passes to the message layer (no staging copy, no per-call
	// allocation on the warm path). The cold path reserves room for the
	// qualified method name behind the arguments; the modelled marshalling
	// charge covers the argument bytes only, exactly as before.
	extra := 0
	if cold {
		extra = len(bm.qname)
	}
	buf, argLen, units := marshalArgs(args, extra)
	t.Charge(machine.CatRuntime,
		time.Duration(units)*cfg.MarshalPerArg+
			time.Duration(argLen)*cfg.MemCopyPerByte)
	lockPair(t) // S-buffer pool

	var flags uint64
	var reqID uint64
	if f != nil {
		flags |= flagWantReply
		// The reply finds this call through the sender's pending table; only
		// the slot's wire ID travels, packed into the flags word's high half.
		reqID = n.pending.Add(f)
		if n.node.Met != nil {
			f.t0 = n.node.M.Now()
		}
	}
	a := [4]uint64{0, uint64(gp.obj), 0, 0}
	if cold {
		// The whole method name travels and resolution happens remotely.
		flags |= flagCold
		a[2] = uint64(bm.hash)
		a[3] = uint64(len(bm.qname))
		copy(buf.Bytes()[argLen:], bm.qname)
	} else {
		a[2] = uint64(bm.stub)
		// The persistent R-buffer's ID at the destination (+1 so 0 means
		// none): the receiver resolves it in its own buffer table, the wire
		// form of the sender-managed buffer address of §4.
		a[3] = uint64(entry.RBufID) + 1
	}
	a[0] = flags | reqID<<32

	// Hand to the (thread-safe) message layer. Zero-argument warm
	// invocations fit a short AM; anything carrying marshalled data uses
	// the bulk path — this is why the paper's 1-Word RMI jumps to the
	// 70 µs bulk AM cost.
	lockPair(t)
	n.ep.RequestOwned(t, int(gp.node), rt.hInvoke, a, buf, buf != nil)

	if f != nil && f.mode != modeFuture {
		rt.waitComp(t, n, f)
	}
}

// lookupMethod resolves the sender-side stub info (the translator would have
// compiled this into the call site; no extra virtual cost beyond StubLookup,
// which invoke charges).
func (rt *Runtime) lookupMethod(gp GPtr, method string) *boundMethod {
	if gp.cls == nil {
		panic("core: global pointer has no class (zero GPtr?)")
	}
	for _, m := range rt.methods {
		if m.class == gp.cls && m.m.Name == method {
			return m
		}
	}
	panic(fmt.Sprintf("core: class %s has no method %q", gp.cls.Name, method))
}

// dispatchLocal runs an RMI whose target lives on the calling node: no
// marshalling, no messages, but threaded/atomic semantics are preserved. A
// future's record is completed here, so local futures join exactly like
// remote ones; a synchronous call returns once the method has.
//
//mpmd:coldpath local dispatch spawns threads by design; the allocation-free contract covers the remote wire path
func (rt *Runtime) dispatchLocal(t *threads.Thread, n *nodeRT, bm *boundMethod, gp GPtr, args []Arg, ret Arg, f *Future) {
	self := n.objs.Get(gp.obj)
	run := func(t2 *threads.Thread) {
		if bm.m.Atomic {
			l := n.objLock(gp.obj)
			l.Lock(t2)
			defer l.Unlock(t2)
		}
		bm.m.Fn(t2, self, args, ret)
	}
	future := f != nil && f.mode == modeFuture
	switch {
	case !bm.m.Threaded && !bm.m.Atomic:
		run(t)
		if future {
			rt.complete(t, f)
		}
	case f == nil:
		t.Spawn("lrmi:"+bm.m.Name, run)
	case future:
		t.Spawn("lrmi:"+bm.m.Name, func(t2 *threads.Thread) {
			run(t2)
			rt.complete(t2, f)
		})
	default:
		// Synchronous local threaded call: spawn and join.
		var wg threads.WaitGroup
		wg.Add(1)
		t.Spawn("lrmi:"+bm.m.Name, func(t2 *threads.Thread) {
			run(t2)
			wg.Done(t2)
		})
		wg.Wait(t)
	}
}

// objLock returns (lazily creating) the per-object lock used by atomic
// methods.
//
//mpmd:coldpath allocates once per object on its first atomic method; later calls return the cached lock
func (n *nodeRT) objLock(obj int32) *threads.Mutex {
	l, ok := n.objLocks[obj]
	if !ok {
		l = new(threads.Mutex)
		n.objLocks[obj] = l
	}
	return l
}

// waitComp waits for a record's reply: it awaits the record's count on the
// wall-clock backends and for the simulator's spinning sender, and reads the
// sync variable complete writes for the simulator's blocking sender and
// future.
func (rt *Runtime) waitComp(t *threads.Thread, n *nodeRT, f *Future) {
	if rt.pollWait || f.mode == modeSpin {
		n.ep.Await(t, &f.done, f.base+1)
		return
	}
	f.sv.Read(t)
}

// registerHandlers installs the runtime's message handlers.
func (rt *Runtime) registerHandlers() {
	rt.hReply = rt.net.Register("cc.reply", rt.handleReply)
	rt.hResolveUpdate = rt.net.Register("cc.resolve.update", rt.handleResolveUpdate)
	rt.hInvoke = rt.net.Register("cc.invoke", rt.handleInvoke)
	rt.mem = am.NewMem(rt.net, am.Price{
		SyncOps:  2, // lockPair
		Issue:    rt.m.Cfg.StubLookup + gpIssueCost,
		Serve:    gpServeCost,
		Complete: gpCompleteCost,
		Slots:    distSlots,
	})
}

// handleInvoke is the generic invocation handler on the receiving node.
//
//mpmd:hotpath
func (rt *Runtime) handleInvoke(t *threads.Thread, m am.Msg) {
	n := rt.nodes[m.Dst]
	cfg := t.Cfg()
	lockPair(t) // message-layer thread safety

	flags := uint32(m.A[0])
	reqID := m.A[0] >> 32
	cold := flags&flagCold != 0
	wantReply := flags&flagWantReply != 0

	// The words came in a message, possibly from another process: the two that
	// index something here — the name length a slice, the stub ID the method
	// table — are held against it first (the name hash, the R-buffer ID and
	// the object ID are refused by name where they are resolved).
	argBytes := m.Payload
	var bm *boundMethod
	if cold {
		if m.A[3] > uint64(len(m.Payload)) {
			panic(fmt.Sprintf("core: node %d invocation from node %d (request %d) carries a %d-byte method name in a %d-byte payload",
				m.Dst, m.Src, reqID, m.A[3], len(m.Payload)))
		}
		argBytes = m.Payload[:len(m.Payload)-int(m.A[3])]
		// Resolve the name against the local registry and send the cache
		// update (stub entry point + the ID of a freshly allocated persistent
		// R-buffer) back to the sender.
		t.Charge(machine.CatRuntime, cfg.StubLookup)
		stub, ok := n.reg.Resolve(tham.NameHash(m.A[2]))
		if !ok {
			panic(fmt.Sprintf("core: node %d cannot resolve method hash %#x", m.Dst, m.A[2]))
		}
		bm = rt.methods[stub]
		rbuf := n.bufs.AllocRBuf()
		n.node.Acct.Count(machine.CntBufAlloc, 1)
		lockPair(t)
		n.ep.Request(t, m.Src, rt.hResolveUpdate,
			[4]uint64{uint64(stub), uint64(bm.hash), uint64(rbuf)}, nil, false)
		// Cold invocations land in the static buffer area and must be
		// copied into the new R-buffer before dispatch.
		stage(t, n, len(argBytes))
	} else {
		if m.A[2] >= uint64(len(rt.methods)) {
			panic(fmt.Sprintf("core: node %d invocation from node %d (request %d) names stub %d, the method table has %d",
				m.Dst, m.Src, reqID, m.A[2], len(rt.methods)))
		}
		bm = rt.methods[m.A[2]]
		if m.A[3] != 0 && !rt.opts.DisablePersistentBuffers {
			// Warm path: the sender targeted the persistent R-buffer by ID
			// (destination-side resolution in the local buffer table), so
			// the data is already in place — no staging copy, modelled or
			// real: the arguments are decoded from the message where it
			// lies.
			n.bufs.Reuse(int32(m.A[3] - 1))
			n.node.Acct.Count(machine.CntBufReuse, 1)
		} else {
			// No persistent buffer: one is allocated for this invocation,
			// staged into, and dropped.
			n.node.Acct.Count(machine.CntBufAlloc, 1)
			stage(t, n, len(argBytes))
		}
	}

	if bm.m.Threaded || bm.m.Atomic {
		// "the invocation message is always sent to a generic active
		// message handler who creates a new thread and then calls the
		// desired method" (§4). The method body runs after this handler
		// returns — past the payload buffer's run-to-completion window — so
		// the handler retains the buffer across the spawn and the new
		// thread releases it once the arguments are decoded out.
		pb := m.PayloadBuf
		if pb != nil {
			pb.Retain()
		}
		t.Spawn("rmi:"+bm.m.Name, func(t2 *threads.Thread) { //mpmdvet:ignore hotpath threaded dispatch creates a thread per §4; the spawn dwarfs these allocations
			rt.runMethod(t2, n, bm, m, reqID, argBytes, wantReply)
			if pb != nil {
				pb.Release()
			}
		})
		return
	}
	// Non-threaded methods dispatch inline in the polling thread — a direct
	// call, no closure.
	rt.runMethod(t, n, bm, m, reqID, argBytes, wantReply)
}

// stage models the cold-path copy of argLen bytes from the static buffer area
// into an R-buffer. The copy is a charge only: the receiver decodes the
// arguments from the message where it lies.
func stage(t *threads.Thread, n *nodeRT, argLen int) {
	lockPair(t)
	t.Charge(machine.CatRuntime, time.Duration(argLen)*t.Cfg().MemCopyPerByte)
}

// runMethod unmarshals, executes, and (when requested) replies. Argument
// and return-value instances come from the method's pooled decode frames
// and recycle when the call completes (methods must not retain them).
//
//mpmd:hotpath
func (rt *Runtime) runMethod(t *threads.Thread, n *nodeRT, bm *boundMethod, m am.Msg, reqID uint64, argBytes []byte, wantReply bool) {
	cfg := t.Cfg()
	var frame *argFrame
	var args []Arg
	var ret Arg
	if bm.m.NewArgs != nil || bm.m.NewRet != nil {
		frame = bm.frames.Get().(*argFrame)
		args, ret = frame.args, frame.ret
	}
	if bm.m.NewArgs != nil {
		units := decodeArgs(argBytes, args)
		t.Charge(machine.CatRuntime, time.Duration(units)*cfg.MarshalPerArg+
			time.Duration(len(argBytes))*cfg.MemCopyPerByte)
	} else if len(argBytes) != 0 {
		panic("core: arguments sent to method without parameters: " + bm.qname)
	}

	self := n.objs.Get(int32(m.A[1]))
	if bm.m.Atomic {
		l := n.objLock(int32(m.A[1]))
		l.Lock(t)
		bm.m.Fn(t, self, args, ret)
		l.Unlock(t)
	} else {
		bm.m.Fn(t, self, args, ret)
	}

	if wantReply {
		var buf *wire.Buf
		if ret != nil {
			var n2, units int
			buf, n2, units = marshalOne(ret)
			t.Charge(machine.CatRuntime, time.Duration(units)*cfg.MarshalPerArg+
				time.Duration(n2)*cfg.MemCopyPerByte)
		}
		lockPair(t)
		n.ep.RequestOwned(t, m.Src, rt.hReply, [4]uint64{reqID}, buf, buf != nil)
	}
	if frame != nil {
		// The return value is already encoded on the wire; the frame can
		// serve the next invocation of this method.
		bm.frames.Put(frame)
	}
}

// handleReply lands an RMI completion (and return value) at the initiator:
// the echoed request ID resolves the pending-call record in the local table.
//
//mpmd:hotpath
func (rt *Runtime) handleReply(t *threads.Thread, m am.Msg) {
	n := rt.nodes[m.Dst]
	f := n.pending.Take("RMI", m.Dst, m.Src, m.A[0])
	if f.t0 > 0 {
		if met := n.node.Met; met != nil {
			met.ObserveDur(metrics.HstRMILatency, n.node.M.Now()-f.t0)
		}
	}
	cfg := t.Cfg()
	lockPair(t)
	if f.ret != nil {
		// Return data is copied twice at the initiator: static buffer area
		// -> receive buffer (raw copy), then receive buffer -> the CC++
		// object, which for structured types runs the per-element assignment
		// (§6: "Bulk reads cost more than bulk writes in CC++ because the
		// return data has to be copied twice"; the initiator never passes an
		// R-buffer address, so this cost is unavoidable in the design).
		units := decodeOne(m.Payload, f.ret)
		t.Charge(machine.CatRuntime, 2*time.Duration(len(m.Payload))*cfg.MemCopyPerByte+
			2*time.Duration(units)*cfg.MarshalPerArg)
	}
	rt.complete(t, f)
}

// handleResolveUpdate installs a stub-cache entry after a cold invocation.
// Everything arrives in the words: the resolved stub, the method-name hash,
// and the ID of the persistent R-buffer the resolver allocated (owned and
// only ever dereferenced by the resolver's node).
func (rt *Runtime) handleResolveUpdate(t *threads.Thread, m am.Msg) {
	n := rt.nodes[m.Dst]
	lockPair(t)
	n.cache.Update(m.Src, tham.NameHash(m.A[1]), &tham.CacheEntry{
		Stub:   tham.StubID(m.A[0]),
		RBufID: int32(m.A[2]),
	})
}

// --- built-in system class (remote object creation) -------------------------

const sysClassName = "__sys"

type sysObj struct{}

// sysClass defines the built-in per-node system object, whose "create"
// method instantiates processor objects at runtime — CC++'s processor-object
// startup expressed through the runtime's own RMI machinery.
func (rt *Runtime) sysClass() *Class {
	return &Class{
		Name: sysClassName,
		New:  func() any { return &sysObj{} },
		Methods: []*Method{{
			Name:     "create",
			Threaded: true,
			NewArgs:  func() []Arg { return []Arg{&Str{}} },
			NewRet:   func() Arg { return &I64{} },
			Fn: func(t *threads.Thread, self any, args []Arg, ret Arg) {
				className := args[0].(*Str).V
				// Mid-run creation is legal here: this handler runs on the
				// owning node's context.
				gp := rt.createObject(t.Node().ID, className)
				ret.(*I64).V = int64(gp.obj)
			},
		}},
	}
}

// SysGPtr returns the global pointer to a node's system object.
func (rt *Runtime) SysGPtr(node int) GPtr {
	return GPtr{node: int32(node), obj: 0, cls: rt.classes[sysClassName]}
}

// NewObjOn creates an object of the named class on a remote node at runtime
// via a real RMI (CC++'s dynamic processor-object creation) and returns a
// global pointer to it.
func (rt *Runtime) NewObjOn(t *threads.Thread, node int, className string) GPtr {
	cls, ok := rt.classes[className]
	if !ok {
		panic("core: unknown class " + className)
	}
	var ret I64
	rt.Call(t, rt.SysGPtr(node), "create", []Arg{&Str{V: className}}, &ret)
	return GPtr{node: int32(node), obj: int32(ret.V), cls: cls}
}
