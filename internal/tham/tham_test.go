package tham

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestHashNameDeterministic(t *testing.T) {
	if HashName("Foo::bar") != HashName("Foo::bar") {
		t.Fatal("hash not deterministic")
	}
	if HashName("Foo::bar") == HashName("Foo::baz") {
		t.Fatal("distinct names collided (unlucky but investigate)")
	}
}

func TestRegistryRegisterResolve(t *testing.T) {
	r := NewRegistry()
	id1 := r.Register("A::m1")
	id2 := r.Register("A::m2")
	if id1 == id2 {
		t.Fatal("distinct methods share a stub")
	}
	if again := r.Register("A::m1"); again != id1 {
		t.Fatal("re-registration changed the stub id")
	}
	got, ok := r.Resolve(HashName("A::m2"))
	if !ok || got != id2 {
		t.Fatalf("resolve = %v %v", got, ok)
	}
	if _, ok := r.Resolve(HashName("A::unknown")); ok {
		t.Fatal("resolved unregistered method")
	}
	if r.Name(id1) != "A::m1" {
		t.Fatal("registry bookkeeping wrong")
	}
}

// Property: registration order fixes stub IDs densely from zero.
func TestRegistryDenseIDs(t *testing.T) {
	f := func(n uint8) bool {
		r := NewRegistry()
		for i := 0; i < int(n); i++ {
			if r.Register(fmt.Sprintf("C::m%d", i)) != StubID(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStubCacheLookupUpdate(t *testing.T) {
	c := NewStubCache()
	h := HashName("A::m")
	if _, ok := c.Lookup(2, h); ok {
		t.Fatal("hit on empty cache")
	}
	c.Update(2, h, &CacheEntry{Stub: 7, RBufID: 5})
	e, ok := c.Lookup(2, h)
	if !ok || e.Stub != 7 || e.RBufID != 5 {
		t.Fatalf("lookup after update: %+v %v", e, ok)
	}
	// Same method, different processor: separate entry.
	if _, ok := c.Lookup(3, h); ok {
		t.Fatal("cache confused processors")
	}
}

func TestBufMgrAllocReuse(t *testing.T) {
	b := NewBufMgr(3)
	if id0, id1 := b.AllocRBuf(), b.AllocRBuf(); id0 != 0 || id1 != 1 {
		t.Fatalf("R-buffer IDs %d, %d, want 0, 1", id0, id1)
	}
	b.Reuse(1)
	b.Reuse(0)
	for _, id := range []int32{2, -1} {
		func() {
			defer func() {
				if want, got := fmt.Sprintf("tham: node 3 has no R-buffer %d (have 2)", id), fmt.Sprint(recover()); got != want {
					t.Errorf("Reuse(%d) failed with %q, want %q", id, got, want)
				}
			}()
			b.Reuse(id)
		}()
	}
}

func TestObjTable(t *testing.T) {
	var o ObjTable
	a := &struct{ x int }{1}
	b := &struct{ x int }{2}
	ia, ib := o.Add(a), o.Add(b)
	if ia == ib {
		t.Fatal("ids not distinct")
	}
	if o.Get(ia) != any(a) || o.Get(ib) != any(b) {
		t.Fatal("lookup returned wrong object")
	}
	defer func() {
		if recover() == nil {
			t.Error("bad id did not panic")
		}
	}()
	o.Get(99)
}
