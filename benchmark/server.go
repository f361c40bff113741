package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"time"

	"repro/mpmd"
)

// bulkBytes is the live_bulk payload: large enough that the per-byte cost
// (marshal copy, pooled wire buffers, R-buffer staging) outweighs the fixed
// per-message cost.
const bulkBytes = 16 << 10

// streamSizes are the net_stream payload sizes. The largest frame stays
// under a quarter of the 1 MiB ring on purpose: the oversize→socket reorder
// (ROADMAP item 1) is a known bug, not a benchmark subject yet.
var streamSizes = [4]int{0, 256, 4 << 10, 32 << 10}

// stampChunk is how many float64 stamps one Stamps RMI returns (64 KiB, a
// ring-sized frame).
const stampChunk = 8192

// refPattern is the seeded payload pattern both sides derive on their own:
// the client sends prefixes of it and the server compares what arrives.
func refPattern(seed int64) []byte {
	b := make([]byte, streamSizes[3])
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// StreamMsg is the net_stream request: a per-sender sequence number and a
// prefix of the reference pattern.
type StreamMsg struct {
	Seq  int64
	Data []byte
}

// streamAck is what Push returns for a message, checked by the client.
func streamAck(seq int64, n int) int64 { return seq<<16 ^ int64(n) }

// Server is the processor object every RMI workload invokes. Handler bodies
// are benchmark code, so verification and the traced entry/exit stamps are
// taken here, outside the program under test.
type Server struct {
	ref   []byte // seeded reference pattern (set at setup in every process)
	chunk []byte // live_bulk: the last Put, served by Get
	next  int64  // next expected sequence number (bulk puts, stream pushes and notes)
	bad   int64  // handler-side verification failures

	// Traced runs only: handler entry/exit as ns offsets from t0, one pair
	// per op handler in arrival order.
	t0     int64
	stamps []float64
}

// enter/leave bracket an op handler; they cost one nil check untraced.
func (s *Server) enter() {
	if s.stamps != nil && len(s.stamps) < cap(s.stamps) {
		s.stamps = append(s.stamps, float64(time.Now().UnixNano()-s.t0))
	}
}

func (s *Server) leave() { s.enter() }

// Null is the paper's 0-word RMI.
func (s *Server) Null(t *mpmd.Thread) {
	s.enter()
	s.leave()
}

// Put stores a bulk payload after checking its sequence number and pattern.
func (s *Server) Put(t *mpmd.Thread, b []byte) {
	s.enter()
	if len(b) != bulkBytes || int64(binary.LittleEndian.Uint64(b)) != s.next || !bytes.Equal(b[8:], s.ref[8:bulkBytes]) {
		s.bad++
	}
	s.next++
	if s.chunk == nil {
		s.chunk = make([]byte, bulkBytes)
	}
	copy(s.chunk, b) // the argument is a view into a pooled buffer
	s.leave()
}

// Get returns the last Put.
func (s *Server) Get(t *mpmd.Thread) []byte {
	s.enter()
	c := s.chunk
	s.leave()
	return c
}

// Push is one net_stream request.
func (s *Server) Push(t *mpmd.Thread, m StreamMsg) int64 {
	s.enter()
	if m.Seq != s.next || len(m.Data) > len(s.ref) || !bytes.Equal(m.Data, s.ref[:len(m.Data)]) {
		s.bad++
	}
	s.next++
	ack := streamAck(m.Seq, len(m.Data))
	s.leave()
	return ack
}

// Note is the one-way RMI interleaved into net_stream; it shares Push's
// sequence, so a one-way overtaking (or being overtaken by) a request shows
// up as a failure.
func (s *Server) Note(t *mpmd.Thread, seq int64) {
	if seq != s.next {
		s.bad++
	}
	s.next++
}

// Bad reports the handler-side verification failures so far.
func (s *Server) Bad(t *mpmd.Thread) int64 { return s.bad }

// StartTrace turns handler stamping on; t0 is the shared wall-clock origin.
func (s *Server) StartTrace(t *mpmd.Thread, t0 int64) {
	s.t0 = t0
	s.stamps = make([]float64, 0, 2*maxSpans)
}

// Stamps returns up to stampChunk recorded stamps starting at index from.
func (s *Server) Stamps(t *mpmd.Thread, from int64) []float64 {
	if from >= int64(len(s.stamps)) {
		return nil
	}
	end := min(from+stampChunk, int64(len(s.stamps)))
	return s.stamps[from:end]
}
