package callgraph

import (
	"fmt"
	"go/token"
)

// Summary computes one per-function fact bottom-up over the graph. Compute
// derives a node's fact from its body and its callees' facts (via get, which
// returns the zero F for out-of-set or not-yet-computed callees). Equal
// decides convergence inside a cycle.
type Summary[F any] interface {
	Compute(n *Node, get func(*Node) F) F
	Equal(a, b F) bool
}

// maxRounds bounds per-SCC iteration. Real lattices here (booleans, small
// lock sets) converge in 2-3 rounds; the cap is a guard against a
// non-monotone Compute, not a tuning knob.
const maxRounds = 32

// Propagate runs the summary over every node in bottom-up SCC order and
// returns the fact map. Singleton SCCs compute once; cyclic SCCs iterate
// members in deterministic order until no member's fact changes.
func Propagate[F any](g *Graph, s Summary[F]) map[*Node]F {
	facts := map[*Node]F{}
	get := func(n *Node) F { return facts[n] }
	for _, scc := range g.SCCs {
		if len(scc) == 1 && !selfCalls(scc[0]) {
			facts[scc[0]] = s.Compute(scc[0], get)
			continue
		}
		for round := 0; round < maxRounds; round++ {
			changed := false
			for _, n := range scc {
				next := s.Compute(n, get)
				if !s.Equal(facts[n], next) {
					facts[n] = next
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
	return facts
}

func selfCalls(n *Node) bool {
	for _, e := range n.Out {
		if e.Callee == n {
			return true
		}
	}
	return false
}

// Witness is the summary hotpath's may-allocate and blockhold's may-block
// questions share: the first dirty operation a function can reach. What/Pos
// describe that leaf ("" = the function is clean), Via the callee it is
// reached through (nil when it is in the function's own body).
type Witness struct {
	What string
	Pos  token.Pos
	Via  *Node
}

// Witnesses is one such summary over the whole graph.
type Witnesses map[*Node]Witness

// PropagateWitness computes a Witnesses bottom-up. leaf names the first dirty
// operation in a node's own body and is asked once per node; sealed means the
// node counts as clean whatever it contains or calls. follow says which kinds
// of edge run in the caller's place.
func PropagateWitness(g *Graph, leaf func(*Node) (w Witness, sealed bool), follow func(Kind) bool) Witnesses {
	return Witnesses(Propagate[Witness](g, &witnessSummary{leaf, follow, map[*Node]ownLeaf{}}))
}

type ownLeaf struct {
	w      Witness
	sealed bool
}

type witnessSummary struct {
	leaf   func(*Node) (Witness, bool)
	follow func(Kind) bool
	own    map[*Node]ownLeaf
}

func (s *witnessSummary) Compute(n *Node, get func(*Node) Witness) Witness {
	own, ok := s.own[n]
	if !ok {
		own.w, own.sealed = s.leaf(n)
		s.own[n] = own
	}
	if own.sealed || own.w.What != "" {
		return own.w
	}
	for _, e := range n.Out {
		if !s.follow(e.Kind) {
			continue
		}
		if w := get(e.Callee); w.What != "" {
			return Witness{What: w.What, Pos: w.Pos, Via: e.Callee}
		}
	}
	return Witness{}
}

func (s *witnessSummary) Equal(a, b Witness) bool { return a == b }

// At says what a call at site, made from self, reaches: the chain from the
// first dirty callee down to its leaf ("push → marshal → call into package fmt
// allocates (codec.go:42)"), or, for an interface call nothing in the analyzed
// set implements, that property cannot be verified. "" when every callee is
// clean.
func (ws Witnesses) At(site *Site, self *Node, property string) string {
	if site == nil {
		return ""
	}
	if site.NoImpl {
		return fmt.Sprintf("interface call %s has no implementers in the analyzed packages; %s cannot be verified", site.Iface, property)
	}
	for _, callee := range site.Callees {
		w := ws[callee]
		if callee == self || w.What == "" {
			continue
		}
		// Follow Via down to the owner of the leaf; seen guards against
		// pick-cycles in mutually recursive components.
		var chain []*Node
		seen := map[*Node]bool{}
		for n := callee; n != nil && !seen[n]; n = ws[n].Via {
			seen[n] = true
			chain = append(chain, n)
		}
		return ChainString(chain, w.What, w.Pos) // one witness per call site
	}
	return ""
}
