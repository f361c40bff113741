// Package trace records timelines of simulation events — message sends and
// deliveries, thread creation and context switches, and per-category time
// charges — and renders them as chronological listings or per-node
// utilization strips.
//
// Tracing is opt-in: install a Log on a machine with Attach before running.
// The hooks cost nothing when no tracer is installed.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Kind classifies an event.
type Kind uint8

// Event kinds emitted by the instrumented layers.
const (
	// KindSend is a packet leaving a node.
	KindSend Kind = iota
	// KindRecv is a message being polled and handled.
	KindRecv
	// KindSpawn is a thread creation.
	KindSpawn
	// KindSwitch is a context switch.
	KindSwitch
	// KindCharge is a virtual-time charge (Dur and the category label say
	// how much and what for).
	KindCharge
	// KindMark is a user annotation.
	KindMark
)

// String returns the event-kind label.
func (k Kind) String() string {
	switch k {
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindSpawn:
		return "spawn"
	case KindSwitch:
		return "switch"
	case KindCharge:
		return "charge"
	case KindMark:
		return "mark"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one recorded occurrence.
type Event struct {
	At    time.Duration
	Node  int
	Kind  Kind
	Label string
	Dur   time.Duration // non-zero for charges
}

// Log accumulates events up to a limit (older events are kept; once the
// limit is reached new events are dropped and the drop count recorded, so a
// runaway simulation cannot exhaust memory).
type Log struct {
	// mu guards events and dropped: on the live backend nodes emit
	// concurrently (on the simulator it is uncontended).
	mu      sync.Mutex
	limit   int
	events  []Event
	dropped int64
}

// New creates a log holding at most limit events (0 means a generous
// default).
func New(limit int) *Log {
	if limit <= 0 {
		limit = 1 << 18
	}
	return &Log{limit: limit}
}

// Add records an event. Safe for concurrent use.
func (l *Log) Add(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.events) >= l.limit {
		l.dropped++
		return
	}
	l.events = append(l.events, e)
}

// snapshot returns the events recorded so far and the drop count. Recorded
// elements are never mutated, so the slice is safe to iterate while writers
// keep appending.
func (l *Log) snapshot() ([]Event, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.events, l.dropped
}

// Events returns the recorded events (chronological on the simulator, which
// emits them in virtual-time order). Safe for concurrent use.
func (l *Log) Events() []Event {
	events, _ := l.snapshot()
	return events
}

// Dropped reports how many events were discarded after the limit.
func (l *Log) Dropped() int64 {
	_, dropped := l.snapshot()
	return dropped
}

// Filter returns the events matching the kind (and node, when node >= 0).
func (l *Log) Filter(kind Kind, node int) []Event {
	events, _ := l.snapshot()
	var out []Event
	for _, e := range events {
		if e.Kind == kind && (node < 0 || e.Node == node) {
			out = append(out, e)
		}
	}
	return out
}

// Listing renders up to max events as text, one per line.
func (l *Log) Listing(max int) string {
	events, dropped := l.snapshot()
	var b strings.Builder
	n := len(events)
	if max > 0 && n > max {
		n = max
	}
	for _, e := range events[:n] {
		if e.Dur > 0 {
			fmt.Fprintf(&b, "%12v n%d %-6s %s (%v)\n", e.At, e.Node, e.Kind, e.Label, e.Dur)
		} else {
			fmt.Fprintf(&b, "%12v n%d %-6s %s\n", e.At, e.Node, e.Kind, e.Label)
		}
	}
	if len(events) > n {
		fmt.Fprintf(&b, "… %d more events\n", len(events)-n)
	}
	if dropped > 0 {
		fmt.Fprintf(&b, "… %d events dropped at the %d-event limit\n", dropped, l.limit)
	}
	return b.String()
}

// Utilization renders per-node busy strips: the window [from, to) is split
// into width buckets and each bucket shows the node's dominant activity —
// '#' computing, '~' in the message layer, 't' thread ops, 'r' runtime,
// '.' idle. Charges spanning buckets are apportioned.
func (l *Log) Utilization(nodes int, from, to time.Duration, width int) string {
	if width <= 0 {
		width = 72
	}
	if to <= from {
		return "(empty window)\n"
	}
	bucket := (to - from) / time.Duration(width)
	if bucket <= 0 {
		bucket = 1
	}
	// busy[node][bucket][category-ish] accumulated durations.
	type cell struct{ cpu, net, thr, rtm time.Duration }
	busy := make([][]cell, nodes)
	for i := range busy {
		busy[i] = make([]cell, width)
	}
	events, dropped := l.snapshot()
	for _, e := range events {
		if e.Kind != KindCharge || e.Dur == 0 || e.Node >= nodes {
			continue
		}
		start, end := e.At-e.Dur, e.At
		if end <= from || start >= to {
			continue
		}
		if start < from {
			start = from
		}
		if end > to {
			end = to
		}
		for t := start; t < end; {
			bi := int((t - from) / bucket)
			if bi >= width {
				break
			}
			bEnd := from + time.Duration(bi+1)*bucket
			seg := end - t
			if bEnd-t < seg {
				seg = bEnd - t
			}
			c := &busy[e.Node][bi]
			switch e.Label {
			case "cpu":
				c.cpu += seg
			case "net":
				c.net += seg
			case "thread-mgmt", "thread-sync":
				c.thr += seg
			default:
				c.rtm += seg
			}
			t += seg
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "utilization %v .. %v  (#=cpu ~=net t=threads r=runtime .=idle)\n", from, to)
	for node := 0; node < nodes; node++ {
		fmt.Fprintf(&b, "n%-2d |", node)
		for bi := 0; bi < width; bi++ {
			c := busy[node][bi]
			max := c.cpu
			ch := byte('#')
			if c.net > max {
				max, ch = c.net, '~'
			}
			if c.thr > max {
				max, ch = c.thr, 't'
			}
			if c.rtm > max {
				max, ch = c.rtm, 'r'
			}
			if max == 0 {
				ch = '.'
			} else if max < bucket/4 {
				ch = ','
			}
			b.WriteByte(ch)
		}
		b.WriteString("|\n")
	}
	if dropped > 0 {
		// A saturated log silently missing charges would make the strips lie
		// about idleness — say so.
		fmt.Fprintf(&b, "… %d events dropped at the %d-event limit; strips under-report activity\n",
			dropped, l.limit)
	}
	return b.String()
}

// Summary counts events by kind per node.
func (l *Log) Summary(nodes int) string {
	counts := make([]map[Kind]int, nodes)
	for i := range counts {
		counts[i] = make(map[Kind]int)
	}
	events, dropped := l.snapshot()
	for _, e := range events {
		if e.Node < nodes {
			counts[e.Node][e.Kind]++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %8s %8s %8s %8s %8s\n", "node", "send", "recv", "spawn", "switch", "charge")
	for i := 0; i < nodes; i++ {
		fmt.Fprintf(&b, "n%-4d %8d %8d %8d %8d %8d\n", i,
			counts[i][KindSend], counts[i][KindRecv], counts[i][KindSpawn],
			counts[i][KindSwitch], counts[i][KindCharge])
	}
	if dropped > 0 {
		fmt.Fprintf(&b, "… %d events dropped at the %d-event limit; counts are lower bounds\n",
			dropped, l.limit)
	}
	return b.String()
}

// SortStable orders events by (time, node); the simulator already emits in
// time order, so this is only needed after merging logs.
func SortStable(events []Event) {
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].At != events[j].At {
			return events[i].At < events[j].At
		}
		return events[i].Node < events[j].Node
	})
}
