package mpmd

import (
	"fmt"
	"reflect"

	"repro/internal/coll"
	"repro/internal/rmigen"
)

// This file is the typed data-parallel surface over internal/coll: teams
// (communicators over node subsets) and the collectives scoped to them.
// One API serves both programming models and both backends: CC++/typed-v2
// programs get the group operations Split-C's library always had, with
// log-depth tree implementations whose every message is one active message
// to the collective handler — no RMI, no marshalling, no method dispatch.

// Team is a communicator: an ordered set of member nodes all collectives
// are scoped to. Ranks are dense indices into the member list. Every
// collective must be called by one thread on every member node, in the same
// order everywhere — the usual collective contract. WorldTeam returns the
// all-nodes team; Split partitions an existing team.
type Team struct {
	tm *coll.Team
}

// WorldTeam returns the team of all machine nodes, installing the
// collective engine (one active-message handler and a mailbox per node) on
// first use. Like class registration, this is a setup-time operation: call it
// before Run.
func WorldTeam(rt *Runtime) (*Team, error) {
	if rt == nil {
		return nil, fmt.Errorf("WorldTeam(nil runtime)")
	}
	if rt.Started() {
		return nil, fmt.Errorf("WorldTeam after Run has started: the collective engine registers an active-message handler, which is setup-time work")
	}
	return &Team{tm: coll.For(rt).World()}, nil
}

// nilSafe reports whether the team is usable; every accessor tolerates the
// nil team Split hands to opted-out members (negative color).
func (tm *Team) nilSafe() bool { return tm != nil && tm.tm != nil }

// Size returns the member count (0 for a nil team).
func (tm *Team) Size() int {
	if !tm.nilSafe() {
		return 0
	}
	return tm.tm.Size()
}

// Nodes returns the member node IDs in rank order (nil for a nil team).
func (tm *Team) Nodes() []int {
	if !tm.nilSafe() {
		return nil
	}
	out := make([]int, tm.tm.Size())
	copy(out, tm.tm.Nodes())
	return out
}

// Node returns the node ID of the given rank, or -1 if the team is nil or
// the rank out of range.
func (tm *Team) Node(rank int) int {
	if !tm.nilSafe() || rank < 0 || rank >= tm.tm.Size() {
		return -1
	}
	return tm.tm.Node(rank)
}

// RankOfNode returns the rank of a node ID, or -1 if it is not a member.
func (tm *Team) RankOfNode(node int) int {
	if !tm.nilSafe() {
		return -1
	}
	return tm.tm.RankOfNode(node)
}

// Rank returns the calling thread's rank in the team, or -1 if its node is
// not a member.
func (tm *Team) Rank(t *Thread) int {
	if !tm.nilSafe() || t == nil {
		return -1
	}
	return tm.tm.Rank(t)
}

// String formats the team for debugging.
func (tm *Team) String() string {
	if !tm.nilSafe() {
		return "team <nil>"
	}
	return fmt.Sprintf("team %#x %v", tm.tm.ID(), tm.tm.Nodes())
}

// check validates one collective call: live team, running program, member
// thread. Returns the caller's rank.
func (tm *Team) check(t *Thread, op string) (int, error) {
	if tm == nil || tm.tm == nil {
		return -1, fmt.Errorf("%s on a nil Team (create teams with WorldTeam/Split)", op)
	}
	if t == nil || !tm.tm.Comm().Runtime().Started() {
		return -1, fmt.Errorf("%s outside a running program: collectives must be called from a node program thread after Run has started", op)
	}
	r := tm.tm.Rank(t)
	if r < 0 {
		return -1, fmt.Errorf("%s from node %d, which is not a member of %s", op, t.Node().ID, tm)
	}
	return r, nil
}

// Barrier blocks until every team member has entered it — a dissemination
// barrier, ceil(log2 n) communication rounds with one message per member
// per round (the hand-rolled alternatives, Runtime.NewBarrier's central
// counter and Split-C's barrier(), are O(n) at the coordinator).
func (tm *Team) Barrier(t *Thread) error {
	if _, err := tm.check(t, "Team.Barrier"); err != nil {
		return err
	}
	tm.tm.Barrier(t)
	return nil
}

// Split partitions the team (MPI_Comm_split): members calling with the same
// color form a new team, ranked by (key, parent rank). A negative color
// opts out and returns a nil team. Split is itself a collective — every
// member must call it — and costs one AllGather over the parent team.
func (tm *Team) Split(t *Thread, color, key int) (*Team, error) {
	if _, err := tm.check(t, "Team.Split"); err != nil {
		return nil, err
	}
	sub := tm.tm.Split(t, color, key)
	if sub == nil {
		return nil, nil
	}
	return &Team{tm: sub}, nil
}

// --- typed collectives -------------------------------------------------------

// Number constrains the built-in reduction combiners.
type Number interface {
	~int | ~int64 | ~float64
}

// Sum is the addition combiner for Reduce/AllReduce.
func Sum[T Number](a, b T) T { return a + b }

// Max is the maximum combiner for Reduce/AllReduce.
func Max[T Number](a, b T) T {
	if b > a {
		return b
	}
	return a
}

// Min is the minimum combiner for Reduce/AllReduce.
func Min[T Number](a, b T) T {
	if b < a {
		return b
	}
	return a
}

// codecOf compiles (or fetches) the wire codec for T — the same value types
// the RMI surface accepts: int, int64, float64, string, []byte, []float64,
// or structs of those.
func codecOf[T any](op string) (*rmigen.Codec, error) {
	c, err := rmigen.CodecFor(typeOf[T]())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", op, err)
	}
	return c, nil
}

// encode marshals v where it lies: &v makes the value addressable, so the
// codec needs no reflect.New temporary and the collective hot path allocates
// only the payload it must hand to the wire.
func encode[T any](c *rmigen.Codec, v T) []byte { return c.AppendTo(reflect.ValueOf(&v).Elem(), nil) }

func decode[T any](c *rmigen.Codec, b []byte) T {
	var out T
	c.Decode(b, reflect.ValueOf(&out).Elem())
	return out
}

// wrapCombiner lifts a typed combiner onto the byte-level payloads the tree
// algorithms move. The decode/combine/encode runs in wall time only; the
// modelled cost of a collective is its wire traffic.
func wrapCombiner[T any](c *rmigen.Codec, op func(T, T) T) coll.Combiner {
	return func(a, b []byte) []byte {
		return encode(c, op(decode[T](c, a), decode[T](c, b)))
	}
}

// Broadcast distributes root's value to every member over a binomial tree
// and returns it on every member. Only the root's v is significant.
func Broadcast[T any](t *Thread, tm *Team, root int, v T) (T, error) {
	var zero T
	r, err := tm.check(t, "Broadcast")
	if err != nil {
		return zero, err
	}
	if root < 0 || root >= tm.Size() {
		return zero, fmt.Errorf("Broadcast: root rank %d out of range [0,%d)", root, tm.Size())
	}
	c, err := codecOf[T]("Broadcast")
	if err != nil {
		return zero, err
	}
	var data []byte
	if r == root {
		data = encode(c, v)
	}
	return decode[T](c, tm.tm.Bcast(t, root, data)), nil
}

// Reduce combines every member's value with op along a binomial tree rooted
// at rank root. The combined value lands at the root (atRoot=true); other
// members get the zero T. op must be associative; like MPI, the grouping is
// unspecified, so floating-point results may differ from a sequential fold
// in the last bits.
func Reduce[T any](t *Thread, tm *Team, root int, v T, op func(T, T) T) (res T, atRoot bool, err error) {
	var zero T
	_, err = tm.check(t, "Reduce")
	if err != nil {
		return zero, false, err
	}
	if root < 0 || root >= tm.Size() {
		return zero, false, fmt.Errorf("Reduce: root rank %d out of range [0,%d)", root, tm.Size())
	}
	c, err := codecOf[T]("Reduce")
	if err != nil {
		return zero, false, err
	}
	b, isRoot := tm.tm.Reduce(t, root, encode(c, v), wrapCombiner(c, op))
	if !isRoot {
		return zero, false, nil
	}
	return decode[T](c, b), true, nil
}

// AllReduce combines every member's value with op and returns the result on
// every member: binomial reduce plus broadcast, 2·ceil(log2 n) rounds.
func AllReduce[T any](t *Thread, tm *Team, v T, op func(T, T) T) (T, error) {
	var zero T
	if _, err := tm.check(t, "AllReduce"); err != nil {
		return zero, err
	}
	c, err := codecOf[T]("AllReduce")
	if err != nil {
		return zero, err
	}
	return decode[T](c, tm.tm.AllReduce(t, encode(c, v), wrapCombiner(c, op))), nil
}

// Scatter distributes all[rank] to each member from the root (whose all
// slice must have one entry per rank; other members may pass nil) and
// returns the member's own entry. Subtree entries travel packed, so the
// depth is ceil(log2 n) rounds.
//
// A root whose all slice has the wrong length panics rather than returning
// an error: only the root can see the mistake, the other members are
// already blocked in the collective, and returning asymmetrically would
// leave them hung with the team's operation sequence desynchronized.
// Failing fast is the only recoverable report.
func Scatter[T any](t *Thread, tm *Team, root int, all []T) (T, error) {
	var zero T
	r, err := tm.check(t, "Scatter")
	if err != nil {
		return zero, err
	}
	if root < 0 || root >= tm.Size() {
		return zero, fmt.Errorf("Scatter: root rank %d out of range [0,%d)", root, tm.Size())
	}
	c, err := codecOf[T]("Scatter")
	if err != nil {
		return zero, err
	}
	var parts [][]byte
	if r == root {
		if len(all) != tm.Size() {
			panic(fmt.Sprintf("mpmd.Scatter: root has %d values for a %d-member team (the other members are already blocked in the collective, so this cannot be reported as an error)", len(all), tm.Size()))
		}
		parts = make([][]byte, len(all))
		for i, v := range all {
			parts[i] = encode(c, v)
		}
	}
	return decode[T](c, tm.tm.Scatter(t, root, parts)), nil
}

// Gather collects every member's value at the root, rank-indexed. The root
// gets the full slice (atRoot=true); other members get nil.
func Gather[T any](t *Thread, tm *Team, root int, v T) (all []T, atRoot bool, err error) {
	_, err = tm.check(t, "Gather")
	if err != nil {
		return nil, false, err
	}
	if root < 0 || root >= tm.Size() {
		return nil, false, fmt.Errorf("Gather: root rank %d out of range [0,%d)", root, tm.Size())
	}
	c, err := codecOf[T]("Gather")
	if err != nil {
		return nil, false, err
	}
	parts, isRoot := tm.tm.Gather(t, root, encode(c, v))
	if !isRoot {
		return nil, false, nil
	}
	out := make([]T, len(parts))
	for i, b := range parts {
		out[i] = decode[T](c, b)
	}
	return out, true, nil
}

// AllGather collects every member's value on every member, rank-indexed:
// binomial gather plus broadcast of the packed vector.
func AllGather[T any](t *Thread, tm *Team, v T) ([]T, error) {
	if _, err := tm.check(t, "AllGather"); err != nil {
		return nil, err
	}
	c, err := codecOf[T]("AllGather")
	if err != nil {
		return nil, err
	}
	parts := tm.tm.AllGather(t, encode(c, v))
	out := make([]T, len(parts))
	for i, b := range parts {
		out[i] = decode[T](c, b)
	}
	return out, nil
}
