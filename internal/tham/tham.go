// Package tham is the small support library the paper writes alongside its
// new CC++ runtime ("ThAM"): processor-object startup, method-name mapping
// with a per-node stub cache, and persistent send/receive buffer management.
//
// The three mechanisms correspond to the paper's named optimizations:
//
//   - Method stub caching (§4): each node keeps a table indexed by
//     (processor number, method-name hash). A valid entry yields the remote
//     stub's entry-point "address" (here: stub ID) so it can be shipped in
//     the message; an invalid entry forces the whole method name onto the
//     wire and a resolution reply updates the cache.
//   - Persistent buffers (§4): receive buffers for recently invoked methods
//     stay allocated and are managed by the sender, eliminating the staging
//     copy out of the per-node static buffer area on warm invocations.
//   - Processor-object startup: object tables mapping small object IDs to
//     live objects, per node.
//
// The tables keep no counts: the runtime that consults them bumps its node's
// tham.stub.hit/miss and tham.buf.alloc/reuse (machine.Accounting), which is
// what the ablation reports.
package tham

import (
	"fmt"
	"hash/fnv"
)

// NameHash is the 32-bit hash of a method name used as the wire/key form of
// method identity across separately compiled program images.
type NameHash uint32

// HashName hashes a fully qualified method name ("Class::method").
func HashName(name string) NameHash {
	h := fnv.New32a()
	// Writing to an fnv hash cannot fail.
	_, _ = h.Write([]byte(name))
	return NameHash(h.Sum32())
}

// StubID is a resolved entry-point index into a node's registry — the
// simulator's stand-in for a remote stub's entry-point address.
type StubID int32

// InvalidStub marks an unresolved cache entry.
const InvalidStub StubID = -1

// Registry is a node's local method registry: stubs registered during
// runtime initialization, looked up by name hash when a resolution request
// arrives from a node with a cold cache.
type Registry struct {
	byHash map[NameHash]StubID
	names  []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byHash: make(map[NameHash]StubID)}
}

// Register adds a local stub for the named method and returns its StubID.
// Registering the same name twice returns the existing ID (idempotent, as
// multiple processor objects of one class share stubs). Distinct names that
// collide in the 32-bit hash space panic: the paper's runtime assumes
// collision-free hashes within one application, and we surface a violation
// rather than silently misdispatch.
func (r *Registry) Register(name string) StubID {
	h := HashName(name)
	if id, ok := r.byHash[h]; ok {
		if r.names[id] != name {
			panic(fmt.Sprintf("tham: method name hash collision: %q vs %q", name, r.names[id]))
		}
		return id
	}
	id := StubID(len(r.names))
	r.names = append(r.names, name)
	r.byHash[h] = id
	return id
}

// Resolve looks up a stub by name hash, as the resolution handler does.
func (r *Registry) Resolve(h NameHash) (StubID, bool) {
	id, ok := r.byHash[h]
	return id, ok
}

// Name returns the registered name of a stub.
func (r *Registry) Name(id StubID) string { return r.names[id] }

// stubKey indexes the cache by processor number and method-name hash,
// exactly as §4 describes.
type stubKey struct {
	proc int
	hash NameHash
}

// CacheEntry is one slot of the stub cache. RBufID names the sender-managed
// persistent receive buffer attached to the remote method once resolved — an
// ID into the *remote* node's buffer table, the stand-in for the raw buffer
// address a real sender would ship in the message words. Holding an ID
// rather than a pointer keeps the cache meaningful across address spaces
// (the sharded netlive backend): only the owning node ever dereferences it.
type CacheEntry struct {
	Stub   StubID
	RBufID int32
}

// StubCache is a node's table of remote stub addresses.
type StubCache struct {
	entries map[stubKey]*CacheEntry
}

// NewStubCache returns an empty cache.
func NewStubCache() *StubCache {
	return &StubCache{entries: make(map[stubKey]*CacheEntry)}
}

// Lookup returns the cache entry for (proc, hash) if it is valid.
func (c *StubCache) Lookup(proc int, hash NameHash) (*CacheEntry, bool) {
	e, ok := c.entries[stubKey{proc, hash}]
	return e, ok
}

// Update installs or overwrites the entry for (proc, hash) after a
// resolution reply.
func (c *StubCache) Update(proc int, hash NameHash, e *CacheEntry) {
	c.entries[stubKey{proc, hash}] = e
}

// BufMgr manages a node's persistent R-buffers: receive buffers that stay
// allocated for recently invoked methods and are named, by ID, in the words of
// every warm invocation. A buffer here is its ID and nothing more — the
// receiver decodes arguments from the message where it lies, so there are no
// bytes to keep — and the manager is the set of IDs handed out.
type BufMgr struct {
	node  int
	rbufs int32 // persistent buffers handed out: IDs 0..rbufs-1
}

// NewBufMgr creates the buffer manager for a node.
func NewBufMgr(node int) *BufMgr { return &BufMgr{node: node} }

// AllocRBuf allocates a persistent receive buffer for a newly resolved method
// and returns its ID, the name the sender ships from then on.
func (b *BufMgr) AllocRBuf() int32 {
	b.rbufs++
	return b.rbufs - 1
}

// Reuse resolves a warm invocation's persistent buffer id — the
// destination-side resolution of a buffer name received in a message's word
// arguments, so a name this node never handed out is refused.
func (b *BufMgr) Reuse(id int32) {
	if id < 0 || id >= b.rbufs {
		panic(fmt.Sprintf("tham: node %d has no R-buffer %d (have %d)", b.node, id, b.rbufs))
	}
}

// ObjTable maps small object IDs to live processor objects on one node.
type ObjTable struct {
	objs []any
}

// Add registers an object and returns its ID.
func (o *ObjTable) Add(obj any) int32 {
	o.objs = append(o.objs, obj)
	return int32(len(o.objs) - 1)
}

// Get returns the object with the given ID.
func (o *ObjTable) Get(id int32) any {
	if id < 0 || int(id) >= len(o.objs) {
		panic(fmt.Sprintf("tham: bad object id %d (node has %d objects)", id, len(o.objs)))
	}
	return o.objs[id]
}
