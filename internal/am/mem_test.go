package am_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/am/amtest"
)

// TestMemHostileWords runs every row of the remote-memory protocol's one
// hostile-word table on a bare two-node machine: node 1 refuses each message
// by name (node, sender, cause) before its words index anything. Deleting a
// check in Mem.part, Mem.request, Mem.reply, fits or ReqTable.Take fails its
// rows: the words then index out of range or slice past a part, a reply
// lands in the wrong form, or nothing is refused at all.
func TestMemHostileWords(t *testing.T) {
	for _, r := range amtest.Rows {
		t.Run(r.Name, func(t *testing.T) { amtest.Check(t, r, amtest.Bare().Drive(r)) })
	}
}

// FuzzMem drives arbitrary words and payloads through the protocol's request
// and reply handlers on the bare rig, seeded from the hostile-word table:
// every message is served or refused with a named am panic, never a runtime
// index or slice error.
func FuzzMem(f *testing.F) {
	for _, r := range amtest.Rows {
		f.Add(r.Reply, r.A[0], r.A[1], r.A[2], r.A[3], r.Payload, uint8(r.Pending), r.Early)
	}
	f.Fuzz(func(t *testing.T, reply bool, a0, a1, a2, a3 uint64, payload []byte, pending uint8, early bool) {
		r := amtest.Row{Reply: reply, A: [4]uint64{a0, a1, a2, a3}, Payload: payload, Pending: int(pending) % (amtest.PutWord + 1), Early: early}
		for node, refusals := range amtest.Bare().Drive(r) {
			for _, s := range refusals {
				if !strings.HasPrefix(s, fmt.Sprintf("am: node %d ", node)) {
					t.Errorf("node %d failed with %q, want a named refusal", node, s)
				}
			}
		}
	})
}
