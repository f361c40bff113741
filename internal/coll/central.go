package coll

// This file holds the central-coordinator collective plan: one root absorbs
// every participant's contribution and releases the result. Linear in
// messages and rounds — the pattern Split-C's library collectives and the
// paper's measurements use — kept here so internal/splitc's all_reduce (and
// the barrier built on it) comes from the same package as the log-depth team
// collectives while preserving their exact wire traffic and modelled costs
// (the splitc parity test pins those numbers).

// ReduceOp selects a reduction combiner over doubles.
type ReduceOp int

// The reduction operators Split-C's library provides for doubles.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

// String names the operator in reports.
func (op ReduceOp) String() string {
	switch op {
	case OpSum:
		return "sum"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	default:
		return "ReduceOp(?)"
	}
}

// Combine applies the operator to two doubles.
func (op ReduceOp) Combine(a, b float64) float64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		if b > a {
			return b
		}
		return a
	case OpMin:
		if b < a {
			return b
		}
		return a
	default:
		panic("coll: unknown ReduceOp")
	}
}

// CentralReduce is the root-side state of a central reduction over n
// participants: Absorb folds contributions as they arrive and reports
// completion on the n-th, resetting for the next round.
type CentralReduce struct {
	n     int
	count int
	acc   float64
}

// NewCentralReduce builds the state for n participants.
func NewCentralReduce(n int) *CentralReduce { return &CentralReduce{n: n} }

// Absorb folds one contribution. When the last participant's value lands it
// returns (result, true) and resets; before that the partial and false.
func (c *CentralReduce) Absorb(op ReduceOp, v float64) (float64, bool) {
	if c.count == 0 {
		c.acc = v
	} else {
		c.acc = op.Combine(c.acc, v)
	}
	c.count++
	if c.count == c.n {
		c.count = 0
		return c.acc, true
	}
	return c.acc, false
}
