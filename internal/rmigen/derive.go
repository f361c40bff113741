package rmigen

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/core"
	"repro/internal/threads"
)

// MethodOpts carries the per-method dispatch flags the CC++ translator took
// from declarations: Threaded runs the method on a fresh thread at the
// receiver (required whenever it may block), Atomic additionally holds the
// target object's lock (and implies a threaded invocation, as in the paper).
type MethodOpts struct {
	Threaded bool
	Atomic   bool
}

// OptionsProvider is implemented (optionally) by processor-object structs to
// flag methods as threaded or atomic; the map is keyed by Go method name.
type OptionsProvider interface {
	RMIOptions() map[string]MethodOpts
}

var threadType = reflect.TypeOf((*threads.Thread)(nil))

// Method is one derived RMI-callable method: its marshalling plans, the
// reflective trampoline installed in the core method table, and a pool of
// call frames so synchronous typed invocations reuse their wire Arg
// instances call over call.
type Method struct {
	Name   string
	args   *valuePlan // nil when the method takes no argument value
	ret    *valuePlan // nil when the method returns nothing
	opts   MethodOpts
	frames sync.Pool // *CallFrame
}

// CallFrame is one pooled set of sender-side wire Args (plus the return
// Arg) for a Method. Frames recycle through AcquireFrame/ReleaseFrame on
// the synchronous invoke path; asynchronous calls keep theirs (the future
// escapes to the application).
type CallFrame struct {
	Args []core.Arg
	Ret  core.Arg
}

// HasArgs reports whether the method takes an argument value.
func (m *Method) HasArgs() bool { return m.args != nil }

// DefersLocally reports whether a node-local invocation of the method runs
// its body on a spawned thread after the invoking call returns (Threaded or
// Atomic dispatch). A one-way local call to such a method still holds the
// wire Args when the caller comes back, so its frame must not recycle.
func (m *Method) DefersLocally() bool { return m.opts.Threaded || m.opts.Atomic }

// HasRet reports whether the method returns a value.
func (m *Method) HasRet() bool { return m.ret != nil }

// AcquireFrame returns a call frame with fresh-or-recycled wire Args. A
// return plan containing slice components gets a fresh Ret every call: the
// decoded slice is handed to the application (which keeps it), so it must
// not ride a recycled Arg whose next decode would overwrite it. Scalar and
// string returns are copied out by value and reuse theirs.
func (m *Method) AcquireFrame() *CallFrame {
	f, _ := m.frames.Get().(*CallFrame)
	if f == nil {
		f = &CallFrame{}
		if m.args != nil {
			f.Args = m.args.newArgs()
		}
		if m.ret != nil {
			f.Ret = m.ret.newRet()
		}
		return f
	}
	if m.ret != nil && m.ret.hasSlices {
		f.Ret = m.ret.newRet()
	}
	return f
}

// ReleaseFrame recycles a frame once the call has completed and the result
// has been loaded out.
func (m *Method) ReleaseFrame(f *CallFrame) { m.frames.Put(f) }

// StoreArgs lowers the argument value at p (a pointer to the Go argument
// value, e.g. &args in a generic Invoke) onto the frame's wire Args — same
// Arg types, same wire bytes, same marshal-unit counts as a hand-written
// []Arg, with zero per-call reflection.
func (m *Method) StoreArgs(p unsafe.Pointer, args []core.Arg) {
	m.args.storePtr(p, args)
}

// LoadRetPtr decodes a completed return Arg into the Go result value at p.
func (m *Method) LoadRetPtr(a core.Arg, p unsafe.Pointer) { m.ret.loadRetPtr(p, a) }

// WireArgs lowers the argument value into a fresh []core.Arg slice (the
// unpooled path used by asynchronous invocations, whose frames escape).
// Returns nil for argument-less methods.
func (m *Method) WireArgs(v reflect.Value) []core.Arg {
	if m.args == nil {
		return nil
	}
	args := m.args.newArgs()
	m.args.store(v, args)
	return args
}

// NewRetArg returns a fresh wire Arg for the return value.
func (m *Method) NewRetArg() core.Arg { return m.ret.newRet() }

// LoadRet decodes a completed return Arg into the addressable Go value.
func (m *Method) LoadRet(a core.Arg, into reflect.Value) { m.ret.loadRet(into, a) }

// Class is a typed processor-object class derived from a Go struct: the
// registration-time product the v2 API layers over core.Class.
type Class struct {
	Name string
	// Ptr is the *T type the class was derived from.
	Ptr reflect.Type
	// Core is the derived untyped class installed in the runtime.
	Core    *core.Class
	methods map[string]*Method
	names   []string // sorted, for error messages
}

// Method resolves a derived method by name.
func (c *Class) Method(name string) (*Method, error) {
	m, ok := c.methods[name]
	if !ok {
		return nil, fmt.Errorf("class %s has no RMI method %q (have: %s)",
			c.Name, name, strings.Join(c.names, ", "))
	}
	return m, nil
}

// Bind resolves method and validates the caller's argument and return types
// against the derived signature — the typed API's bind-time check, so type
// mismatches surface as setup errors instead of mid-run corruption.
func (c *Class) Bind(method string, argsT, retT reflect.Type, oneWay bool) (*Method, error) {
	m, err := c.Method(method)
	if err != nil {
		return nil, err
	}
	if m.args == nil {
		if argsT != voidType {
			return nil, fmt.Errorf("method %s::%s takes no arguments; use mpmd.Void as the argument type (got %s)",
				c.Name, method, argsT)
		}
	} else if argsT != m.args.typ {
		return nil, fmt.Errorf("argument type mismatch: method %s::%s takes %s, got %s",
			c.Name, method, m.args.typ, argsT)
	}
	if oneWay {
		if m.ret != nil {
			return nil, fmt.Errorf("one-way invocation of %s::%s, which returns %s (one-way methods must not return a value)",
				c.Name, method, m.ret.typ)
		}
		return m, nil
	}
	if m.ret == nil {
		if retT != voidType {
			return nil, fmt.Errorf("method %s::%s returns nothing; use mpmd.Void as the result type (got %s)",
				c.Name, method, retT)
		}
	} else if retT != m.ret.typ {
		return nil, fmt.Errorf("result type mismatch: method %s::%s returns %s, got %s",
			c.Name, method, m.ret.typ, retT)
	}
	return m, nil
}

// DeriveClass builds a typed class from *T: every exported method with
// signature
//
//	func (x *T) Name(t *threads.Thread[, args A]) [R]
//
// becomes RMI-callable, with A and R marshalled through the plans in
// codec.go. Exported methods whose first parameter is not *threads.Thread
// are ordinary helpers and are skipped; methods that do take a thread but
// have an otherwise invalid signature are registration errors — the typo
// surfaces at setup, not as a mid-run panic.
func DeriveClass(ptrType reflect.Type) (*Class, error) {
	if ptrType.Kind() != reflect.Pointer || ptrType.Elem().Kind() != reflect.Struct {
		return nil, fmt.Errorf("processor-object type must be a struct, got %s", ptrType)
	}
	elem := ptrType.Elem()
	if elem.Name() == "" {
		return nil, fmt.Errorf("processor-object struct must be a named type, got %s", elem)
	}
	cls := &Class{
		Name:    elem.Name(),
		Ptr:     ptrType,
		methods: make(map[string]*Method),
	}

	var opts map[string]MethodOpts
	if op, ok := reflect.New(elem).Interface().(OptionsProvider); ok {
		opts = op.RMIOptions()
	} else if _, has := ptrType.MethodByName("RMIOptions"); has {
		// A misdeclared RMIOptions would otherwise be silently ignored and
		// drop Threaded/Atomic flags — turning a blocking method into an
		// inline handler. Surface the signature error at setup.
		return nil, fmt.Errorf("%s has an RMIOptions method that does not satisfy rmigen.OptionsProvider (want RMIOptions() map[string]MethodOpts)", ptrType)
	}

	cc := &core.Class{
		Name: cls.Name,
		New:  func() any { return reflect.New(elem).Interface() },
	}
	for i := 0; i < ptrType.NumMethod(); i++ {
		rm := ptrType.Method(i)
		if rm.Name == "RMIOptions" {
			continue
		}
		ft := rm.Type // func(recv *T, ...)
		if ft.NumIn() < 2 || ft.In(1) != threadType {
			continue // helper method, not an RMI entry point
		}
		m := &Method{Name: rm.Name, opts: opts[rm.Name]}
		if ft.NumIn() > 3 {
			return nil, fmt.Errorf("method %s.%s: RMI methods take at most (t *Thread, args A); got %d parameters",
				cls.Name, rm.Name, ft.NumIn()-1)
		}
		if ft.NumOut() > 1 {
			return nil, fmt.Errorf("method %s.%s: RMI methods return at most one value, got %d",
				cls.Name, rm.Name, ft.NumOut())
		}
		var err error
		if ft.NumIn() == 3 {
			if m.args, err = planFor(ft.In(2)); err != nil {
				return nil, fmt.Errorf("method %s.%s argument: %w", cls.Name, rm.Name, err)
			}
		}
		if ft.NumOut() == 1 {
			if m.ret, err = planFor(ft.Out(0)); err != nil {
				return nil, fmt.Errorf("method %s.%s result: %w", cls.Name, rm.Name, err)
			}
		}
		cls.methods[rm.Name] = m
		cls.names = append(cls.names, rm.Name)
		cc.Methods = append(cc.Methods, deriveCoreMethod(m, rm.Func))
	}
	sort.Strings(cls.names)
	if len(cls.methods) == 0 {
		return nil, fmt.Errorf("type %s has no RMI methods (want exported methods with a *mpmd.Thread first parameter)", ptrType)
	}
	for name := range opts {
		if _, ok := cls.methods[name]; !ok {
			return nil, fmt.Errorf("RMIOptions names method %q, but %s has no such RMI method (have: %s)",
				name, cls.Name, strings.Join(cls.names, ", "))
		}
	}
	cls.Core = cc
	return cls, nil
}

// deriveCoreMethod builds the untyped core.Method trampoline for one typed
// method. The reflective unpack/call/pack runs in wall time only — it makes
// no virtual-time charges, so the calibrated cost of a typed call is
// byte-for-byte the cost of the equivalent hand-written one.
func deriveCoreMethod(m *Method, fn reflect.Value) *core.Method {
	cm := &core.Method{
		Name:     m.Name,
		Threaded: m.opts.Threaded,
		Atomic:   m.opts.Atomic,
	}
	if m.args != nil {
		args := m.args
		cm.NewArgs = func() []core.Arg { return args.newArgs() }
	}
	if m.ret != nil {
		ret := m.ret
		cm.NewRet = func() core.Arg { return ret.newRet() }
	}
	cm.Fn = func(t *threads.Thread, self any, args []core.Arg, ret core.Arg) {
		in := make([]reflect.Value, 0, 3)
		in = append(in, reflect.ValueOf(self), reflect.ValueOf(t))
		if m.args != nil {
			// One allocation for the argument value, then the compiled
			// offset-based loads; the field plans touch no reflect.Value.
			ap := reflect.New(m.args.typ)
			m.args.loadPtr(ap.UnsafePointer(), args)
			in = append(in, ap.Elem())
		}
		out := fn.Call(in)
		if m.ret != nil {
			m.ret.storeRet(out[0], ret)
		}
	}
	return cm
}

// extKey is the runtime extension slot holding the typed-class registry.
const extKey = "rmigen"

// Registry is the per-runtime table of typed classes, stored in the core
// runtime's extension slot.
type Registry struct {
	byType map[reflect.Type]*Class
}

// For returns (creating on first use) the typed registry of a runtime.
func For(rt *core.Runtime) *Registry {
	if v := rt.Ext(extKey); v != nil {
		return v.(*Registry)
	}
	r := &Registry{byType: make(map[reflect.Type]*Class)}
	rt.SetExt(extKey, r)
	return r
}

// Register derives a typed class from ptrType and installs it in rt. All
// validation happens here, at setup time: bad method signatures, duplicate
// registrations, and name collisions with untyped classes come back as
// errors.
func Register(rt *core.Runtime, ptrType reflect.Type) (*Class, error) {
	if rt.Started() {
		return nil, fmt.Errorf("cannot register %s: the runtime is already running (register classes before Run)", ptrType)
	}
	reg := For(rt)
	if _, dup := reg.byType[ptrType]; dup {
		return nil, fmt.Errorf("type %s is already registered", ptrType)
	}
	cls, err := DeriveClass(ptrType)
	if err != nil {
		return nil, err
	}
	if rt.HasClass(cls.Name) {
		return nil, fmt.Errorf("class name %q is already registered (by the untyped API?)", cls.Name)
	}
	rt.RegisterClass(cls.Core)
	reg.byType[ptrType] = cls
	return cls, nil
}

// Lookup resolves the typed class previously registered for ptrType.
func Lookup(rt *core.Runtime, ptrType reflect.Type) (*Class, error) {
	if v := rt.Ext(extKey); v != nil {
		if cls, ok := v.(*Registry).byType[ptrType]; ok {
			return cls, nil
		}
	}
	return nil, fmt.Errorf("type %s is not registered (call mpmd.RegisterClass[%s] before use)",
		ptrType, ptrType.Elem().Name())
}
