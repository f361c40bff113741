package mpmd

import (
	"fmt"
	"reflect"
	"unsafe"

	"repro/internal/core"
	"repro/internal/rmigen"
	"repro/internal/threads"
)

// This file is the v2 typed API: compile-time-checked remote method
// invocation derived from ordinary Go structs, layered strictly on top of
// the untyped Class/Method/Arg path. The typed layer adds zero modelled
// cost — a typed value goes out as one Arg with exactly the wire bytes and
// marshal units of a hand-written []Arg (see the parity test), so the
// paper's calibrated tables are unaffected by which surface a program uses.

// Void is the empty value type standing in for "no arguments" or "no return
// value" in Invoke's type parameters.
type Void = rmigen.Void

// MethodOpts flags a method as Threaded (runs on a fresh thread at the
// receiver; required whenever it may block) and/or Atomic (holds the target
// object's lock; implies threaded, as in the paper). A method that is neither
// runs inside its message handler and must not block: on a wall-clock machine
// the handler may run in the receiving node's interrupt context, on the
// caller's goroutine, and a block there panics naming that context.
type MethodOpts = rmigen.MethodOpts

// OptionsProvider is optionally implemented by processor-object structs to
// attach MethodOpts to methods by Go method name.
type OptionsProvider = rmigen.OptionsProvider

// Ref is a typed global pointer to a processor object of type T — the v2
// surface over the opaque GPtr. Refs are forgeable only through the runtime
// (NewObject, NewObjectOn, RefOf), like CC++ global pointers.
type Ref[T any] struct {
	rt *core.Runtime
	gp core.GPtr
}

// GPtr drops down to the untyped global pointer (for mixing with the
// low-level API).
func (r Ref[T]) GPtr() GPtr { return r.gp }

// Nil reports whether the ref is the zero/nil reference.
func (r Ref[T]) Nil() bool { return r.rt == nil || r.gp.Nil() }

// NodeID reports which node owns the object.
func (r Ref[T]) NodeID() int { return r.gp.NodeID() }

// String formats the ref for debugging.
func (r Ref[T]) String() string { return r.gp.String() }

func typeOf[T any]() reflect.Type { return reflect.TypeOf((*T)(nil)).Elem() }

// RegisterClass derives a processor-object class from T and registers it
// with the runtime. Every exported method of *T with signature
//
//	func (x *T) Name(t *mpmd.Thread[, args A]) [R]
//
// becomes RMI-callable; A and R must be int, int64, float64, string,
// []byte, []float64, or structs of those. Exported methods without a
// *mpmd.Thread first parameter are ordinary helpers and are ignored.
// Invalid signatures, duplicate registrations, and name collisions are
// reported here, at setup time. Must be called before Run, identically on
// every program image (as with the untyped API, registration order defines
// the machine-wide stub IDs).
func RegisterClass[T any](rt *Runtime) error {
	_, err := rmigen.Register(rt, reflect.TypeOf((*T)(nil)))
	return err
}

// NewObject instantiates a registered T on the given node at setup time (no
// virtual cost) and returns a typed ref. For creation from inside a running
// program, use NewObjectOn, which performs a real RMI.
func NewObject[T any](rt *Runtime, node int) (Ref[T], error) {
	cls, err := rmigen.Lookup(rt, reflect.TypeOf((*T)(nil)))
	if err != nil {
		return Ref[T]{}, err
	}
	if rt.Started() {
		return Ref[T]{}, fmt.Errorf("NewObject[%s] after Run has started: setup-time placement is over; use NewObjectOn from a node program (it performs a real RMI)", cls.Name)
	}
	return Ref[T]{rt: rt, gp: rt.CreateObject(node, cls.Name)}, nil
}

// NewObjectOn creates a T on a remote node from inside a running program —
// a real RMI to the node's system object, CC++'s dynamic processor-object
// creation — and returns a typed ref. For setup-time placement (before
// Run), use NewObject.
func NewObjectOn[T any](t *Thread, rt *Runtime, node int) (Ref[T], error) {
	cls, err := rmigen.Lookup(rt, reflect.TypeOf((*T)(nil)))
	if err != nil {
		return Ref[T]{}, err
	}
	if t == nil || !rt.Started() {
		return Ref[T]{}, fmt.Errorf("NewObjectOn[%s] outside a running program: it performs a real RMI and must be called from a node program thread (use NewObject for setup-time placement)", cls.Name)
	}
	return Ref[T]{rt: rt, gp: rt.NewObjOn(t, node, cls.Name)}, nil
}

// RefOf lifts an untyped global pointer into a typed ref, validating that
// the pointed-to object is a registered T of this runtime (class identity,
// not just name — a pointer from a different runtime is rejected).
func RefOf[T any](rt *Runtime, gp GPtr) (Ref[T], error) {
	cls, err := rmigen.Lookup(rt, reflect.TypeOf((*T)(nil)))
	if err != nil {
		return Ref[T]{}, err
	}
	if !gp.IsClass(cls.Core) {
		if gp.ClassName() == cls.Name {
			return Ref[T]{}, fmt.Errorf("global pointer is to class %q of a different runtime", cls.Name)
		}
		return Ref[T]{}, fmt.Errorf("global pointer is to class %q, not %s", gp.ClassName(), cls.Name)
	}
	return Ref[T]{rt: rt, gp: gp}, nil
}

// bind validates one typed invocation end to end — live ref, running
// program, known method, matching argument/return types — and returns the
// derived method. Everything here is wall-time-only bookkeeping; the
// virtual-time cost of the call itself is charged by the untyped core path.
func bind[T any](t *Thread, r Ref[T], method string, argsT, retT reflect.Type, oneWay bool) (*rmigen.Method, error) {
	if r.rt == nil {
		return nil, fmt.Errorf("typed RMI %q through a zero Ref (create refs with NewObject/NewObjectOn/RefOf)", method)
	}
	if r.gp.Nil() {
		return nil, fmt.Errorf("typed RMI %q through a nil global pointer", method)
	}
	if t == nil || !r.rt.Started() {
		return nil, fmt.Errorf("typed RMI %q outside a running program: Invoke must be called from a node program thread after Run has started", method)
	}
	cls, err := rmigen.Lookup(r.rt, reflect.TypeOf((*T)(nil)))
	if err != nil {
		return nil, err
	}
	return cls.Bind(method, argsT, retT, oneWay)
}

// Invoke performs a synchronous typed RMI: marshal args, transfer, run the
// method remotely, and return its result. A and R must match the method's
// declared argument and return types (use Void for "none"); mismatches,
// unknown methods, and unregistered types come back as errors before
// anything is sent. The call lowers onto Runtime.Call — same messages, same
// modelled costs as the untyped API.
func Invoke[A, R, T any](t *Thread, r Ref[T], method string, args A) (R, error) {
	var out R
	m, err := bind(t, r, method, typeOf[A](), typeOf[R](), false)
	if err != nil {
		return out, err
	}
	// The argument and the result are their own wire Args, viewed where they
	// lie through the method's pooled call record: no staging copy, and no
	// allocation in this layer beyond args and out moving to the heap.
	call := m.NewCall(unsafe.Pointer(&args), unsafe.Pointer(&out))
	r.rt.Call(t, r.gp, method, call.Args(), call.Ret())
	call.Release()
	return out, nil
}

// InvokeAsync starts a typed RMI and returns immediately; Future.Wait joins
// and yields the result. Lowers onto Runtime.CallAsync.
func InvokeAsync[A, R, T any](t *Thread, r Ref[T], method string, args A) (*Future[R], error) {
	m, err := bind(t, r, method, typeOf[A](), typeOf[R](), false)
	if err != nil {
		return nil, err
	}
	// One allocation holds the future, its core record and its call record,
	// which the runtime reads until the reply lands: the reply decodes
	// straight into the future's value.
	a := new(asyncCall[R])
	a.f = &a.rec
	m.Init(&a.call, unsafe.Pointer(&args), unsafe.Pointer(&a.val))
	core.StartCall(r.rt, t, r.gp, method, a.call.Args(), a.call.Ret(), &a.rec)
	return &a.Future, nil
}

// asyncCall is the sender-side state of one InvokeAsync, future first.
type asyncCall[R any] struct {
	Future[R]
	rec  core.Future
	call rmigen.Call
}

// InvokeOneWay starts a fire-and-forget typed RMI (no reply message at
// all). The method must not return a value. Lowers onto Runtime.CallOneWay.
func InvokeOneWay[A, T any](t *Thread, r Ref[T], method string, args A) error {
	m, err := bind(t, r, method, typeOf[A](), nil, true)
	if err != nil {
		return err
	}
	// A remote one-way marshals the argument inside CallOneWay and a local
	// non-threaded body runs inline: either way the record is consumed when
	// the call returns. A *local* one-way to a Threaded/Atomic method only
	// spawns the body, which reads the argument later: that record escapes.
	call := m.NewCall(unsafe.Pointer(&args), nil)
	r.rt.CallOneWay(t, r.gp, method, call.Args())
	if r.gp.NodeID() != t.Node().ID || !m.DefersLocally() {
		call.Release()
	}
	return nil
}

// Future is the typed join handle of a split-phase operation: an
// asynchronous RMI (InvokeAsync) or a Dist array access (Dist.GetAsync,
// Dist.PutAsync). Wait returns the typed result directly — no manual type
// assertions, closing the last untyped hole in the v2 surface. The
// low-level core.Future remains available as UntypedFuture.
type Future[R any] struct {
	// f is the operation's record, in the same allocation as the future;
	// the result lands in val before f completes.
	f   *core.Future
	val R
}

// Wait blocks until the operation has completed and returns the result (the
// zero R for void operations).
func (fu *Future[R]) Wait(t *threads.Thread) R {
	fu.f.Wait(t)
	return fu.val
}

// Done reports (without blocking) whether the operation has completed.
func (fu *Future[R]) Done() bool { return fu.f.Done() }
