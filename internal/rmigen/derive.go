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
// sender-side call records.
type Method struct {
	Name  string
	args  *valuePlan // nil when the method takes no argument value
	ret   *valuePlan // nil when the method returns nothing
	opts  MethodOpts
	calls sync.Pool // *Call
}

// Call is the sender side of one typed invocation: the argument and the
// result, where the caller holds them, as the wire Args core's Call takes.
// Core keeps what it is handed (the pending table holds the result Arg until
// the reply lands), so a record lives on the heap: pooled for a synchronous
// call (NewCall), so that a warm null Invoke stays free of allocations, and
// part of its future for an asynchronous one (Init).
type Call struct {
	m       *Method
	in, out Value
	args    [1]core.Arg
}

// NewCall returns a pooled record viewing the argument value at in and the
// result value at out (each of the method's type; ignored where the method
// has none).
func (m *Method) NewCall(in, out unsafe.Pointer) *Call {
	c, _ := m.calls.Get().(*Call)
	if c == nil {
		c = new(Call)
	}
	m.Init(c, in, out)
	return c
}

// Init fills c, a record the caller holds, as NewCall fills a pooled one.
func (m *Method) Init(c *Call, in, out unsafe.Pointer) {
	c.m = m
	c.in, c.out = Value{plan: m.args, ptr: in}, Value{plan: m.ret, ptr: out}
	c.args[0] = &c.in
}

// Args returns the wire arguments: the argument value as one Arg, or none.
func (c *Call) Args() []core.Arg {
	if c.m.args == nil {
		return nil
	}
	return c.args[:]
}

// Ret returns the result value as a wire Arg, nil for a method without one.
func (c *Call) Ret() core.Arg {
	if c.m.ret == nil {
		return nil
	}
	return &c.out
}

// Release returns a record from NewCall to its pool once the runtime no
// longer reads it: after a synchronous call has returned, or a one-way call
// that does not defer locally.
func (c *Call) Release() {
	c.in.ptr, c.out.ptr = nil, nil
	c.m.calls.Put(c)
}

// DefersLocally reports whether a node-local invocation of the method runs
// its body on a spawned thread after the invoking call returns (Threaded or
// Atomic dispatch). A one-way local call to such a method still reads the
// argument through the record when the caller comes back, so the record
// must not recycle.
func (m *Method) DefersLocally() bool { return m.opts.Threaded || m.opts.Atomic }

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
// method. The reflective call runs in wall time only — it makes no
// virtual-time charges, so the calibrated cost of a typed call is
// byte-for-byte the cost of the equivalent hand-written one. Every Arg it is
// handed is a *Value: the receiver's pooled decode frame owns one value of
// the argument type and one of the result type (NewArgs, NewRet), and a
// node-local call passes the sender's Call record straight through. Methods
// of a derived class are therefore invoked through the façade, or with no
// Args at all.
func deriveCoreMethod(m *Method, fn reflect.Value) *core.Method {
	cm := &core.Method{
		Name:     m.Name,
		Threaded: m.opts.Threaded,
		Atomic:   m.opts.Atomic,
	}
	if m.args != nil {
		cm.NewArgs = func() []core.Arg { return []core.Arg{m.args.newValue()} }
	}
	if m.ret != nil {
		cm.NewRet = func() core.Arg { return m.ret.newValue() }
	}
	cm.Fn = func(t *threads.Thread, self any, args []core.Arg, ret core.Arg) {
		in := make([]reflect.Value, 2, 3)
		in[0], in[1] = reflect.ValueOf(self), reflect.ValueOf(t)
		if m.args != nil {
			in = append(in, reflect.NewAt(m.args.typ, args[0].(*Value).ptr).Elem())
		}
		out := fn.Call(in)
		if m.ret != nil {
			reflect.NewAt(m.ret.typ, ret.(*Value).ptr).Elem().Set(out[0])
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
