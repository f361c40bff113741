package am

import "fmt"

// ReqTable is a node's table of in-flight requests of one kind (RMIs, or
// the remote-memory accesses of one runtime, Mem): the
// request message names its sender-side record by slot in the word arguments
// and the reply echoes it, instead of a pointer travelling. Freed slots are
// reused, so the table stays as small as the node's peak of outstanding
// requests. Every method is called from the owning node's execution context
// only — the reply handler runs on the node that sent the request — so the
// table needs no lock.
type ReqTable[T any] struct {
	recs []*T
	free []uint32
}

// Add stores an in-flight record and returns its wire request ID: slot + 1,
// so 0 means "no reply expected".
//
//mpmd:hotpath
func (tb *ReqTable[T]) Add(rec *T) uint64 {
	if ln := len(tb.free); ln > 0 {
		id := tb.free[ln-1]
		tb.free = tb.free[:ln-1]
		tb.recs[id] = rec
		return uint64(id) + 1
	}
	tb.recs = append(tb.recs, rec)
	return uint64(len(tb.recs))
}

// InFlight is the number of requests awaiting their reply.
func (tb *ReqTable[T]) InFlight() int { return len(tb.recs) - len(tb.free) }

// Take resolves the request ID a reply from node src carried to node me and
// frees the slot. The ID came in a message, possibly from another process:
// one that names no in-flight request — never issued, or already answered —
// is refused by name (kind says which table) before it indexes anything.
//
//mpmd:hotpath
func (tb *ReqTable[T]) Take(kind string, me, src int, wireID uint64) *T {
	if wireID-1 >= uint64(len(tb.recs)) || tb.recs[wireID-1] == nil {
		panic(fmt.Sprintf("am: node %d %s reply from node %d for unknown request %d (stale or duplicate)", me, kind, src, wireID))
	}
	rec := tb.recs[wireID-1]
	tb.recs[wireID-1] = nil
	tb.free = append(tb.free, uint32(wireID-1))
	return rec
}
