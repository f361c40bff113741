// Package coll implements group communication for the MPMD runtime: teams
// (communicators over node subsets) and the collective operations scoped to
// them — barrier, broadcast, reduce/all-reduce, scatter/gather/all-gather.
//
// Every collective message is one active message to one handler (coll.msg),
// sent with core.Runtime.Send: the words name it — [team, sequence,
// phase<<32 | slot, 0] — and a payload, when it has one, is the message's
// payload. Nothing is marshalled and no method is dispatched, the way the
// paper moves the runtime's own traffic ("small request/reply active
// messages", §6) and Split-C's collectives run on Active Messages; a barrier
// round carries nothing, so it is a short AM. The handler lands the payload,
// copied once, in its node's mailbox under those words until the member
// thread takes it. On the simulator a message costs what the AM layer
// charges, under the runtime's net's profile (so Nexus pricing applies), plus
// that one receive copy.
//
// The algorithms are the log-depth classics — a dissemination barrier and
// binomial trees for the data collectives — so an n-member operation
// completes in O(log n) communication rounds where the hand-rolled central
// patterns applications used before were O(n) (see logdepth_test.go).
//
// Payloads are opaque []byte at this layer; the typed surface in package
// mpmd encodes values through the rmigen codecs. Split-C's library
// collectives, the linear central plan the paper measured, live with the rest
// of Split-C (internal/splitc).
package coll

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/am"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/threads"
)

// extKey is the core-runtime extension slot the Comm lives in.
const extKey = "coll.comm"

// msgKey names one collective message: the team, the operation's sequence
// number in it, the phase tag that separates message kinds inside one
// operation (reduce-up vs broadcast-down of an all-reduce) and the slot —
// the sender's relative rank, or the round number for barriers. It is the
// message's words, unpacked.
type msgKey struct {
	team, seq   uint64
	phase, slot uint32
}

// box is one node's end of the engine. It is touched only from that node's
// execution context: deliver runs on the receiving node, and the member
// thread that takes from the mailbox or splits a team is that node's.
type box struct {
	mail map[msgKey][]byte
	// arrived counts the messages landed in mail; a taker awaits it.
	arrived am.Count
	// proposed is the last team id this node proposed in a Split; proposals
	// count from 1, so no subteam is named 0, the world's id.
	proposed uint32
}

// Comm is the per-runtime collective engine: the handler every collective
// message is sent to, each node's mailbox and the world team. Create it (or
// the world team through it) before Run.
type Comm struct {
	rt    *core.Runtime
	h     am.HandlerID
	boxes []box
	world *Team
}

// For returns the runtime's collective engine, creating it and registering
// its handler on first use. Must first be called before Run (handler
// registration is setup-time work).
func For(rt *core.Runtime) *Comm {
	if v := rt.Ext(extKey); v != nil {
		return v.(*Comm)
	}
	n := rt.Machine().NumNodes()
	c := &Comm{rt: rt, boxes: make([]box, n)}
	c.h = rt.Handle("coll.msg", c.deliver)
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
		c.boxes[i].mail = make(map[msgKey][]byte)
	}
	c.world = newTeam(c, 0, nodes)
	rt.SetExt(extKey, c)
	return c
}

// Runtime returns the CC++ runtime the engine is bound to.
func (c *Comm) Runtime() *core.Runtime { return c.rt }

// World returns the team of all nodes.
func (c *Comm) World() *Team { return c.world }

// deliver is the handler of every collective message: it lands the payload
// in the receiving node's mailbox. The words may come from another process,
// so each is held to what a genuine sender puts there before anything is
// stored, and a message that would overwrite one not yet taken is refused.
func (c *Comm) deliver(t *threads.Thread, m am.Msg) {
	n := uint64(len(c.boxes))
	k := msgKey{team: m.A[0], seq: m.A[1], phase: uint32(m.A[2] >> 32), slot: uint32(m.A[2])}
	mail := c.boxes[m.Dst].mail
	var cause string
	switch _, dup := mail[k]; {
	case k.phase != 'x' && k.phase != 'b' && k.phase != 'r' && k.phase != 'g' && k.phase != 's':
		cause = fmt.Sprintf("unknown phase %#x", k.phase)
	case uint64(k.slot) >= n:
		cause = fmt.Sprintf("slot %d on a %d-node machine", k.slot, n)
	case k.team>>32 >= n:
		cause = fmt.Sprintf("team led by node %d on a %d-node machine", k.team>>32, n)
	case k.phase == 'x' && len(m.Payload) > 0:
		cause = fmt.Sprintf("barrier round %d carries a %d-byte payload", k.slot, len(m.Payload))
	case dup:
		cause = fmt.Sprintf("second message for phase %c slot %d before the first was taken", k.phase, k.slot)
	}
	if cause != "" {
		panic(fmt.Sprintf("coll: node %d message from node %d (team %#x, sequence %d): %s", m.Dst, m.Src, k.team, k.seq, cause))
	}
	// The payload is a view into a wire buffer recycled when the handler
	// returns: copy it once (an empty one stays nil and costs nothing).
	t.Charge(machine.CatRuntime, time.Duration(len(m.Payload))*t.Cfg().MemCopyPerByte)
	mail[k] = append([]byte(nil), m.Payload...)
	c.boxes[m.Dst].arrived.Advance(t, 1)
}

// --- teams -------------------------------------------------------------------

// Team is a communicator over a subset of nodes. Ranks are dense indices
// into the member list; every collective must be called by exactly the
// member threads, in the same order on every member (the usual collective
// contract). The world team exists from setup; subteams come from Split.
type Team struct {
	c      *Comm
	id     uint64
	nodes  []int       // member node IDs, indexed by rank
	rankOf map[int]int // node ID -> rank
	// seq is the per-rank collective sequence number. Each member's thread
	// touches only its own entry, so the slice needs no locking on the live
	// backend; the entries advance in lockstep because collectives are
	// called in the same order everywhere.
	seq []uint64
}

func newTeam(c *Comm, id uint64, nodes []int) *Team {
	tm := &Team{c: c, id: id, nodes: nodes, rankOf: make(map[int]int, len(nodes)), seq: make([]uint64, len(nodes))}
	for r, n := range nodes {
		tm.rankOf[n] = r
	}
	return tm
}

// ID returns the team's machine-wide wire name: its leader node (the rank-0
// node when Split made it) in the high 32 bits, the leader's proposal in the
// low ones; the world team is 0.
func (tm *Team) ID() uint64 { return tm.id }

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

// begin starts the calling member's next collective on the team: its rank
// and the operation's sequence number.
func (tm *Team) begin(t *threads.Thread) (int, uint64) {
	r := tm.Rank(t)
	if r < 0 {
		panic(fmt.Sprintf("coll: node %d is not a member of team %#x", t.Node().ID, tm.id))
	}
	tm.seq[r]++
	return r, tm.seq[r]
}

// send ships one message of operation seq to node dst.
func (tm *Team) send(t *threads.Thread, dst int, seq uint64, phase byte, slot int, payload []byte) {
	tm.c.rt.Send(t, dst, tm.c.h, [4]uint64{tm.id, seq, uint64(phase)<<32 | uint64(slot)}, payload)
}

// take blocks (servicing the network) until the named message has landed in
// the calling node's mailbox, then consumes it.
func (tm *Team) take(t *threads.Thread, seq uint64, phase byte, slot int) []byte {
	bx := &tm.c.boxes[t.Node().ID]
	k := msgKey{team: tm.id, seq: seq, phase: uint32(phase), slot: uint32(slot)}
	b, ok := bx.mail[k]
	for !ok {
		tm.c.rt.WaitLocal(t, &bx.arrived, bx.arrived.Value()+1)
		b, ok = bx.mail[k]
	}
	delete(bx.mail, k)
	return b
}

// --- barrier -----------------------------------------------------------------

// Barrier blocks until every team member has entered it: a dissemination
// barrier, ceil(log2 n) rounds, each member sending exactly one message per
// round — against the O(n) central counter the runtime's Barrier object and
// Split-C's barrier() use.
func (tm *Team) Barrier(t *threads.Thread) {
	r, seq := tm.begin(t)
	n := len(tm.nodes)
	for k := 0; 1<<k < n; k++ {
		peer := tm.nodes[(r+1<<k)%n]
		tm.send(t, peer, seq, 'x', k, nil)
		// The round-k message we wait for comes from rank (r - 2^k) mod n,
		// under the same words.
		tm.take(t, seq, 'x', k)
	}
}

// --- broadcast ---------------------------------------------------------------

// Bcast distributes root's payload to every member over a binomial tree
// (depth ceil(log2 n)) and returns it on every member. Only root's data
// argument is significant.
func (tm *Team) Bcast(t *threads.Thread, root int, data []byte) []byte {
	r, seq := tm.begin(t)
	return tm.bcast(t, r, seq, root, data)
}

// bcast is the reusable broadcast phase (also the down-sweep of AllReduce
// and AllGather, which run it under their own sequence number).
func (tm *Team) bcast(t *threads.Thread, r int, seq uint64, root int, data []byte) []byte {
	n := len(tm.nodes)
	rel := (r - root + n) % n
	// Receive from the parent: the first set bit of rel, scanning up, names
	// the round we were reached in.
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			data = tm.take(t, seq, 'b', rel-mask)
			break
		}
		mask <<= 1
	}
	// Forward to children, largest stride first.
	mask >>= 1
	for mask > 0 {
		if rel+mask < n && rel&(mask-1) == 0 && rel&mask == 0 {
			dst := tm.nodes[(rel+mask+root)%n]
			tm.send(t, dst, seq, 'b', rel, data)
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
	r, seq := tm.begin(t)
	return tm.reduce(t, r, seq, root, data, comb)
}

func (tm *Team) reduce(t *threads.Thread, r int, seq uint64, root int, data []byte, comb Combiner) ([]byte, bool) {
	n := len(tm.nodes)
	rel := (r - root + n) % n
	for mask := 1; mask < n; mask <<= 1 {
		if rel&mask == 0 {
			if src := rel | mask; src < n {
				data = comb(data, tm.take(t, seq, 'r', src))
			}
		} else {
			parent := tm.nodes[(rel-mask+root)%n]
			tm.send(t, parent, seq, 'r', rel, data)
			return data, false
		}
	}
	return data, true
}

// AllReduce combines every member's payload and returns the result on every
// member: a binomial reduce to rank 0 followed by a binomial broadcast —
// 2·ceil(log2 n) communication rounds.
func (tm *Team) AllReduce(t *threads.Thread, data []byte, comb Combiner) []byte {
	r, seq := tm.begin(t)
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
	r, seq := tm.begin(t)
	return tm.gather(t, r, seq, root, data)
}

func (tm *Team) gather(t *threads.Thread, r int, seq uint64, root int, data []byte) ([][]byte, bool) {
	n := len(tm.nodes)
	rel := (r - root + n) % n
	parts := make([][]byte, n)
	parts[r] = data
	for mask := 1; mask < n; mask <<= 1 {
		if rel&mask == 0 {
			if src := rel | mask; src < n {
				unpackEntries(tm.take(t, seq, 'g', src), parts)
			}
		} else {
			// What has landed here is this subtree: relative ranks [rel, rel+mask).
			parent := tm.nodes[(rel-mask+root)%n]
			tm.send(t, parent, seq, 'g', rel, packEntries(tm.subtree(rel, mask, root), parts))
			return nil, false
		}
	}
	return parts, true
}

// subtree returns the ranks of the members at relative ranks [rel, rel+size)
// from root.
func (tm *Team) subtree(rel, size, root int) []int {
	n := len(tm.nodes)
	var ranks []int
	for d := rel; d < rel+size && d < n; d++ {
		ranks = append(ranks, (d+root)%n)
	}
	return ranks
}

// AllGather collects every member's payload on every member: a binomial
// gather to rank 0 followed by a broadcast of the packed vector.
func (tm *Team) AllGather(t *threads.Thread, data []byte) [][]byte {
	r, seq := tm.begin(t)
	parts, isRoot := tm.gather(t, r, seq, 0, data)
	n := len(tm.nodes)
	var packed []byte
	if isRoot {
		packed = packEntries(tm.subtree(0, n, 0), parts)
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
	r, seq := tm.begin(t)
	n := len(tm.nodes)
	if r == root && len(parts) != n {
		panic(fmt.Sprintf("coll: Scatter root has %d parts for a %d-member team", len(parts), n))
	}
	rel := (r - root + n) % n
	mine := make([][]byte, n)
	if rel == 0 {
		copy(mine, parts)
	}
	// Receive the packed entries for my subtree from my parent.
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			unpackEntries(tm.take(t, seq, 's', rel-mask), mine)
			break
		}
		mask <<= 1
	}
	// Forward each child its subtree's entries: child rel+m owns relative
	// ranks [rel+m, rel+2m).
	mask >>= 1
	for mask > 0 {
		if rel+mask < n && rel&(mask-1) == 0 && rel&mask == 0 {
			dst := tm.nodes[(rel+mask+root)%n]
			tm.send(t, dst, seq, 's', rel, packEntries(tm.subtree(rel+mask, mask, root), mine))
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
// lists are computed from an AllGather of (color, key, proposal), so every
// member of a subteam derives the identical team deterministically.
//
// The proposal is a fresh team id from each member's node, and the new team
// takes its rank-0 node's: leader<<32 | proposal. That is unique machine-wide
// with no extra round, because a node proposes a new value in every Split
// and leads at most one team per Split.
func (tm *Team) Split(t *threads.Thread, color, key int) *Team {
	b := &tm.c.boxes[t.Node().ID]
	b.proposed++
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(color)))
	binary.LittleEndian.PutUint64(buf[8:], uint64(int64(key)))
	binary.LittleEndian.PutUint64(buf[16:], uint64(b.proposed))
	all := tm.AllGather(t, buf[:])
	if color < 0 {
		return nil
	}
	type member struct {
		key, rank int
		proposed  uint32
	}
	var ms []member
	for rank, b := range all {
		if len(b) != len(buf) {
			panic(fmt.Sprintf("coll: Split record of rank %d is %d bytes, want %d", rank, len(b), len(buf)))
		}
		c := int(int64(binary.LittleEndian.Uint64(b)))
		k := int(int64(binary.LittleEndian.Uint64(b[8:])))
		if c == color {
			ms = append(ms, member{key: k, rank: rank, proposed: uint32(binary.LittleEndian.Uint64(b[16:]))})
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
	return newTeam(tm.c, uint64(nodes[0])<<32|uint64(ms[0].proposed), nodes)
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
