// Package coll implements group communication for the MPMD runtime: teams
// (communicators over node subsets) and the collective operations scoped to
// them — barrier, broadcast, reduce/all-reduce, scatter/gather/all-gather.
//
// Everything lowers onto the existing RMI wire path (core.Runtime one-way
// and synchronous calls to a per-node mailbox object), so the modelled
// costs stay honest: collective messages pay the same marshalling,
// stub-cache, persistent-buffer, and AM charges as any application RMI.
// The algorithms are the log-depth classics — a dissemination barrier and
// binomial trees for the data collectives — so an n-member operation
// completes in O(log n) communication rounds where the hand-rolled central
// patterns applications used before were O(n) (see logdepth_test.go).
//
// Payloads are opaque []byte at this layer; the typed surface in package
// mpmd encodes values through the rmigen codecs. The package also hosts the
// central-coordinator state machines (central.go) that internal/splitc's
// library collectives are built from — the linear plan the paper's Split-C
// measurements used, kept bit-identical in cost.
package coll

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/threads"
)

// collClassName is the registered class of the per-node mailbox objects.
const collClassName = "__coll"

// extKey is the core-runtime extension slot the Comm lives in.
const extKey = "coll.comm"

// collObj is the per-node mailbox: collective payloads land here (keyed by
// team/sequence/phase/slot) until the member thread consumes them. It is
// touched only from its node's execution context — the deliver handler runs
// on the owning node, and the consuming member thread is that node's.
type collObj struct {
	mail map[string][]byte
}

// Comm is the per-runtime collective engine: one mailbox object per node
// plus the world team. Create it (or the world team through it) before Run.
type Comm struct {
	rt    *core.Runtime
	objs  []core.GPtr
	world *Team
}

// For returns the runtime's collective engine, creating and registering it
// on first use. Must first be called before Run (class registration and
// object placement are setup-time operations).
func For(rt *core.Runtime) *Comm {
	if v := rt.Ext(extKey); v != nil {
		return v.(*Comm)
	}
	c := &Comm{rt: rt}
	rt.RegisterClass(c.collClass())
	n := rt.Machine().NumNodes()
	for i := 0; i < n; i++ {
		c.objs = append(c.objs, rt.CreateObject(i, collClassName))
	}
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	c.world = newTeam(c, "w", nodes)
	rt.SetExt(extKey, c)
	return c
}

// Runtime returns the CC++ runtime the engine is bound to.
func (c *Comm) Runtime() *core.Runtime { return c.rt }

// World returns the team of all nodes.
func (c *Comm) World() *Team { return c.world }

// obj returns the mailbox of the node t runs on.
func (c *Comm) obj(t *threads.Thread) *collObj {
	return c.rt.Object(c.objs[t.Node().ID]).(*collObj)
}

// collClass builds the mailbox class. Its method is non-threaded: it only
// moves bytes into a node-local map and never blocks.
func (c *Comm) collClass() *core.Class {
	return &core.Class{
		Name: collClassName,
		New:  func() any { return &collObj{mail: make(map[string][]byte)} },
		Methods: []*core.Method{
			{
				// deliver lands one collective payload in the mailbox.
				Name:    "deliver",
				NewArgs: func() []core.Arg { return []core.Arg{&core.Str{}, &core.Bytes{}} },
				Fn: func(t *threads.Thread, self any, args []core.Arg, ret core.Arg) {
					o := self.(*collObj)
					key := args[0].(*core.Str).V
					// Copy: the decoded slice may alias a persistent R-buffer
					// that the next warm invocation overwrites.
					b := args[1].(*core.Bytes).V
					own := make([]byte, len(b))
					copy(own, b)
					o.mail[key] = own
				},
			},
		},
	}
}

// send ships one collective payload to a peer node's mailbox as a one-way
// RMI — same wire path, same modelled cost as any application invocation.
func (c *Comm) send(t *threads.Thread, node int, key string, payload []byte) {
	c.rt.CallOneWay(t, c.objs[node], "deliver",
		[]core.Arg{&core.Str{V: key}, &core.Bytes{V: payload}})
}

// take blocks (servicing the network) until the keyed payload has landed in
// the local mailbox, then consumes it.
func (c *Comm) take(t *threads.Thread, key string) []byte {
	o := c.obj(t)
	if _, ok := o.mail[key]; !ok {
		c.rt.WaitLocal(t, func() bool { _, ok := o.mail[key]; return ok })
	}
	b := o.mail[key]
	delete(o.mail, key)
	return b
}

// --- teams -------------------------------------------------------------------

// Team is a communicator over a subset of nodes. Ranks are dense indices
// into the member list; every collective must be called by exactly the
// member threads, in the same order on every member (the usual collective
// contract). The world team exists from setup; subteams come from Split.
type Team struct {
	c      *Comm
	id     string
	nodes  []int       // member node IDs, indexed by rank
	rankOf map[int]int // node ID -> rank
	// seq is the per-rank collective sequence number. Each member's thread
	// touches only its own entry, so the slice needs no locking on the live
	// backend; the entries advance in lockstep because collectives are
	// called in the same order everywhere.
	seq []int64
}

func newTeam(c *Comm, id string, nodes []int) *Team {
	tm := &Team{c: c, id: id, nodes: nodes, rankOf: make(map[int]int, len(nodes)), seq: make([]int64, len(nodes))}
	for r, n := range nodes {
		tm.rankOf[n] = r
	}
	return tm
}

// ID returns the team's machine-wide identifier.
func (tm *Team) ID() string { return tm.id }

// Comm returns the collective engine the team belongs to.
func (tm *Team) Comm() *Comm { return tm.c }

// Size returns the member count.
func (tm *Team) Size() int { return len(tm.nodes) }

// Nodes returns the member node IDs in rank order (do not mutate).
func (tm *Team) Nodes() []int { return tm.nodes }

// Node returns the node ID of the given rank.
func (tm *Team) Node(rank int) int { return tm.nodes[rank] }

// RankOfNode returns the rank of a node ID, or -1 if it is not a member.
func (tm *Team) RankOfNode(node int) int {
	if r, ok := tm.rankOf[node]; ok {
		return r
	}
	return -1
}

// Rank returns the calling thread's rank, or -1 if its node is not a member.
func (tm *Team) Rank(t *threads.Thread) int { return tm.RankOfNode(t.Node().ID) }

// mustRank is Rank for internal callers that require membership.
func (tm *Team) mustRank(t *threads.Thread) int {
	r := tm.Rank(t)
	if r < 0 {
		panic(fmt.Sprintf("coll: node %d is not a member of team %s", t.Node().ID, tm.id))
	}
	return r
}

// next advances and returns rank r's collective sequence number.
func (tm *Team) next(r int) int64 {
	tm.seq[r]++
	return tm.seq[r]
}

// key builds a mailbox key: team, op sequence, phase tag, slot. The phase
// tag separates message kinds inside one operation (reduce-up vs
// broadcast-down of an all-reduce); the slot is the sender's relative rank,
// or the round number for barriers. Built without fmt — every collective
// message pays for a key at each end — so the string is the one allocation.
func (tm *Team) key(seq int64, phase byte, slot int) string {
	var buf [48]byte
	b := append(buf[:0], tm.id...)
	b = append(b, ';')
	b = strconv.AppendInt(b, seq, 10)
	b = append(b, ';', phase)
	b = strconv.AppendInt(b, int64(slot), 10)
	return string(b)
}

// ceilLog2 returns ceil(log2(n)) for n >= 1.
func ceilLog2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

// --- barrier -----------------------------------------------------------------

// Barrier blocks until every team member has entered it: a dissemination
// barrier, ceil(log2 n) rounds, each member sending exactly one message per
// round — against the O(n) central counter the runtime's Barrier object and
// Split-C's barrier() use.
func (tm *Team) Barrier(t *threads.Thread) {
	r := tm.mustRank(t)
	seq := tm.next(r)
	n := len(tm.nodes)
	for k := 0; 1<<k < n; k++ {
		peer := tm.nodes[(r+1<<k)%n]
		key := tm.key(seq, 'x', k)
		tm.c.send(t, peer, key, nil)
		// The round-k message we wait for comes from rank (r - 2^k) mod n,
		// under the same key.
		tm.c.take(t, key)
	}
}

// --- broadcast ---------------------------------------------------------------

// Bcast distributes root's payload to every member over a binomial tree
// (depth ceil(log2 n)) and returns it on every member. Only root's data
// argument is significant.
func (tm *Team) Bcast(t *threads.Thread, root int, data []byte) []byte {
	r := tm.mustRank(t)
	seq := tm.next(r)
	return tm.bcast(t, r, seq, root, data)
}

// bcast is the reusable broadcast phase (also the down-sweep of AllReduce
// and AllGather, which run it under their own sequence number).
func (tm *Team) bcast(t *threads.Thread, r int, seq int64, root int, data []byte) []byte {
	n := len(tm.nodes)
	rel := (r - root + n) % n
	// Receive from the parent: the first set bit of rel, scanning up, names
	// the round we were reached in.
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			data = tm.c.take(t, tm.key(seq, 'b', rel-mask))
			break
		}
		mask <<= 1
	}
	// Forward to children, largest stride first.
	mask >>= 1
	for mask > 0 {
		if rel+mask < n && rel&(mask-1) == 0 && rel&mask == 0 {
			dst := tm.nodes[(rel+mask+root)%n]
			tm.c.send(t, dst, tm.key(seq, 'b', rel), data)
		}
		mask >>= 1
	}
	return data
}

// --- reduce ------------------------------------------------------------------

// Combiner merges two payloads into one. It must be associative and is
// applied in tree order, so non-commutative combiners see an unspecified
// grouping (as in MPI).
type Combiner func(a, b []byte) []byte

// Reduce combines every member's payload with comb along a binomial tree
// rooted at rank root. The combined payload is returned at the root
// (ok=true); other members get their partial (ok=false).
func (tm *Team) Reduce(t *threads.Thread, root int, data []byte, comb Combiner) ([]byte, bool) {
	r := tm.mustRank(t)
	seq := tm.next(r)
	return tm.reduce(t, r, seq, root, data, comb)
}

func (tm *Team) reduce(t *threads.Thread, r int, seq int64, root int, data []byte, comb Combiner) ([]byte, bool) {
	n := len(tm.nodes)
	rel := (r - root + n) % n
	for mask := 1; mask < n; mask <<= 1 {
		if rel&mask == 0 {
			src := rel | mask
			if src < n {
				data = comb(data, tm.c.take(t, tm.key(seq, 'r', src)))
			}
		} else {
			parent := tm.nodes[(rel-mask+root)%n]
			tm.c.send(t, parent, tm.key(seq, 'r', rel), data)
			return data, false
		}
	}
	return data, true
}

// AllReduce combines every member's payload and returns the result on every
// member: a binomial reduce to rank 0 followed by a binomial broadcast —
// 2·ceil(log2 n) communication rounds.
func (tm *Team) AllReduce(t *threads.Thread, data []byte, comb Combiner) []byte {
	r := tm.mustRank(t)
	seq := tm.next(r)
	acc, _ := tm.reduce(t, r, seq, 0, data, comb)
	return tm.bcast(t, r, seq, 0, acc)
}

// --- gather / scatter --------------------------------------------------------

// packed payload framing: repeated (rank u64, len u64, bytes) entries.

func packEntries(ranks []int, parts [][]byte) []byte {
	size := 0
	for _, r := range ranks {
		size += 16 + len(parts[r])
	}
	out := make([]byte, 0, size)
	var hdr [8]byte
	for _, r := range ranks {
		binary.LittleEndian.PutUint64(hdr[:], uint64(r))
		out = append(out, hdr[:]...)
		binary.LittleEndian.PutUint64(hdr[:], uint64(len(parts[r])))
		out = append(out, hdr[:]...)
		out = append(out, parts[r]...)
	}
	return out
}

// unpackEntries lands packed entries into parts (indexed by rank). The rank
// and length words may have crossed a link, so each is held to what is there
// — the team's size, the bytes that remain — before it indexes anything.
func unpackEntries(b []byte, parts [][]byte) {
	for len(b) > 0 {
		if len(b) < 16 {
			panic(fmt.Sprintf("coll: packed entry truncated: %d bytes, no room for its rank and length words", len(b)))
		}
		r, ln := binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:])
		if r >= uint64(len(parts)) {
			panic(fmt.Sprintf("coll: packed entry for rank %d of a %d-member team", r, len(parts)))
		}
		if ln > uint64(len(b)-16) {
			panic(fmt.Sprintf("coll: packed entry for rank %d declares %d bytes, %d bytes follow", r, ln, len(b)-16))
		}
		parts[r] = b[16 : 16+ln]
		b = b[16+ln:]
	}
}

// Gather collects every member's payload at rank root over a binomial tree:
// each subtree's entries travel as one packed message, so the depth is
// ceil(log2 n) rounds. The root (ok=true) gets the full rank-indexed slice;
// other members return nil, false.
func (tm *Team) Gather(t *threads.Thread, root int, data []byte) ([][]byte, bool) {
	r := tm.mustRank(t)
	seq := tm.next(r)
	return tm.gather(t, r, seq, root, data)
}

func (tm *Team) gather(t *threads.Thread, r int, seq int64, root int, data []byte) ([][]byte, bool) {
	n := len(tm.nodes)
	rel := (r - root + n) % n
	parts := make([][]byte, n)
	parts[r] = data
	have := []int{r}
	for mask := 1; mask < n; mask <<= 1 {
		if rel&mask == 0 {
			src := rel | mask
			if src < n {
				unpackEntries(tm.c.take(t, tm.key(seq, 'g', src)), parts)
				for i := range parts {
					if parts[i] != nil && !containsInt(have, i) {
						have = append(have, i)
					}
				}
			}
		} else {
			parent := tm.nodes[(rel-mask+root)%n]
			tm.c.send(t, parent, tm.key(seq, 'g', rel), packEntries(have, parts))
			return nil, false
		}
	}
	return parts, true
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// AllGather collects every member's payload on every member: a binomial
// gather to rank 0 followed by a broadcast of the packed vector.
func (tm *Team) AllGather(t *threads.Thread, data []byte) [][]byte {
	r := tm.mustRank(t)
	seq := tm.next(r)
	parts, isRoot := tm.gather(t, r, seq, 0, data)
	n := len(tm.nodes)
	var packed []byte
	if isRoot {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		packed = packEntries(all, parts)
	}
	packed = tm.bcast(t, r, seq, 0, packed)
	if !isRoot {
		parts = make([][]byte, n)
		unpackEntries(packed, parts)
	}
	return parts
}

// Scatter distributes one payload per rank from the root over a binomial
// tree: the root packs each subtree's entries into one message, children
// peel off their own part and forward the rest — ceil(log2 n) rounds, like
// the broadcast but with partitioned data. Only root's parts argument is
// significant; every member returns its own entry.
func (tm *Team) Scatter(t *threads.Thread, root int, parts [][]byte) []byte {
	r := tm.mustRank(t)
	seq := tm.next(r)
	n := len(tm.nodes)
	if r == root && len(parts) != n {
		panic(fmt.Sprintf("coll: Scatter root has %d parts for a %d-member team", len(parts), n))
	}
	rel := (r - root + n) % n
	mine := make([][]byte, n)
	if rel == 0 {
		for i := 0; i < n; i++ {
			mine[i] = parts[i]
		}
	}
	// Receive the packed entries for my subtree from my parent.
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			unpackEntries(tm.c.take(t, tm.key(seq, 's', rel-mask)), mine)
			break
		}
		mask <<= 1
	}
	// Forward each child its subtree's entries: child rel+m owns relative
	// ranks [rel+m, rel+2m).
	mask >>= 1
	for mask > 0 {
		if rel+mask < n && rel&(mask-1) == 0 && rel&mask == 0 {
			var ranks []int
			for d := rel + mask; d < rel+2*mask && d < n; d++ {
				ranks = append(ranks, (d+root)%n)
			}
			dst := tm.nodes[(rel+mask+root)%n]
			tm.c.send(t, dst, tm.key(seq, 's', rel), packEntries(ranks, mine))
		}
		mask >>= 1
	}
	return mine[r]
}

// --- split -------------------------------------------------------------------

// Split partitions the team into subteams by color (MPI_Comm_split): every
// member calls it with its color and key; members of the same color form a
// new team, ranked by (key, parent rank). A negative color opts out — the
// member still participates in the exchange but gets a nil team. The member
// lists are computed from an AllGather of (color, key), so every member of
// a subteam derives the identical team deterministically.
func (tm *Team) Split(t *threads.Thread, color, key int) *Team {
	r := tm.mustRank(t)
	seq := tm.seq[r] + 1 // the AllGather below consumes this sequence number
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(color)))
	binary.LittleEndian.PutUint64(buf[8:], uint64(int64(key)))
	all := tm.AllGather(t, buf[:])
	if color < 0 {
		return nil
	}
	type member struct{ key, rank int }
	var ms []member
	for rank, b := range all {
		c := int(int64(binary.LittleEndian.Uint64(b)))
		k := int(int64(binary.LittleEndian.Uint64(b[8:])))
		if c == color {
			ms = append(ms, member{key: k, rank: rank})
		}
	}
	// Sort by (key, parent rank) — insertion sort; teams are small.
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && (ms[j].key < ms[j-1].key ||
			(ms[j].key == ms[j-1].key && ms[j].rank < ms[j-1].rank)); j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
	nodes := make([]int, len(ms))
	for i, m := range ms {
		nodes[i] = tm.nodes[m.rank]
	}
	id := fmt.Sprintf("%s/%d.%d", tm.id, seq, color)
	return newTeam(tm.c, id, nodes)
}

// --- float64 payload helpers -------------------------------------------------

// EncF64 encodes a float64 as a collective payload; DecF64 reverses it and
// SumF64 is the matching byte-level addition combiner. Conveniences for
// byte-level users of Team (the typed mpmd surface has its own codecs).
func EncF64(v float64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, math.Float64bits(v))
	return b
}

// DecF64 decodes an EncF64 payload.
func DecF64(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// SumF64 combines two EncF64 payloads by addition.
func SumF64(a, b []byte) []byte { return EncF64(DecF64(a) + DecF64(b)) }
