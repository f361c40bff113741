package splitc

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/am"
	"repro/internal/machine"
)

// TestSplitCHostileWords drives words no correct sender produces through the
// real am stack — they could come from another process — and requires each
// handler to refuse them by name (node, sender, cause) before indexing
// anything with them. Dropping a check in Proc.part, decodeF64 or
// am.ReqTable.Take fails its rows: the words then index out of range, slice
// past the part, or land a payload of the wrong size without a word.
func TestSplitCHostileWords(t *testing.T) {
	const cells, absent = 0, 1 // the rig's segments, in Share order
	rows := []struct {
		name    string
		h       string // the handler's registered name
		a       [4]uint64
		payload []byte
		// answered leaves node 1 with request 1 issued and answered; pending
		// with a bulk read of 4 doubles in flight as request 1.
		answered, pending bool
		want              string
	}{
		{name: "segment past the table", h: "sc.read.req", a: [4]uint64{0, 7, 0, 1},
			want: "no part of segment 7 here (2 shared)"},
		{name: "segment index past the word", h: "sc.bulk.read.req", a: [4]uint64{1 << 40, 0, 1, 1},
			want: "no part of segment 1099511627776"},
		{name: "segment the node holds no part of", h: "sc.write.req", a: [4]uint64{0, absent, 0, 1},
			want: "no part of segment 1"},
		{name: "offset past the part", h: "sc.write.req", a: [4]uint64{0, cells, 4, 1},
			want: "1 elements at offset 4 outside segment 0's part of 4"},
		{name: "offset wraps negative", h: "sc.store", a: [4]uint64{0, cells, ^uint64(0)},
			want: "at offset 18446744073709551615 outside"},
		{name: "length past the part", h: "sc.bulk.read.req", a: [4]uint64{cells, 2, 3, 1},
			want: "3 elements at offset 2 outside segment 0's part of 4"},
		{name: "length overflows the offset", h: "sc.bulk.write.req", a: [4]uint64{cells, 2, ^uint64(0) - 1, 1}, payload: make([]byte, 8),
			want: "elements at offset 2 outside"},
		{name: "bulk write payload longer than its length word", h: "sc.bulk.write.req", a: [4]uint64{cells, 0, 2, 1}, payload: make([]byte, 24),
			want: "bulk message from node 0: 24 bytes for 2 doubles"},
		{name: "bulk store payload shorter than its length word", h: "sc.bulk.store", a: [4]uint64{cells, 0, 2}, payload: make([]byte, 8),
			want: "8 bytes for 2 doubles"},
		{name: "reply to a request never issued", h: "sc.read.reply", a: [4]uint64{0, 9},
			want: "Split-C reply from node 0 for unknown request 9"},
		{name: "reply with request id 0", h: "sc.ack",
			want: "unknown request 0"},
		{name: "reply to a request already answered", h: "sc.ack", a: [4]uint64{1}, answered: true,
			want: "unknown request 1 (stale or duplicate)"},
		{name: "bulk reply payload disagrees with its request", h: "sc.bulk.reply", a: [4]uint64{1}, payload: make([]byte, 8), pending: true,
			want: "8 bytes for 4 doubles"},
	}
	named := regexp.MustCompile(`^(splitc|am): node 1 `)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			w := New(machine.New(machine.SP1997(), 2))
			w.Share([][]float64{make([]float64, 4), make([]float64, 4)})
			w.Share([][]float64{make([]float64, 4), nil})
			h := map[string]am.HandlerID{
				"sc.read.req": w.hReadReq, "sc.read.reply": w.hReadReply, "sc.write.req": w.hWriteReq,
				"sc.ack": w.hAck, "sc.store": w.hStore, "sc.bulk.read.req": w.hBulkReadReq,
				"sc.bulk.reply": w.hBulkReply, "sc.bulk.write.req": w.hBulkWriteReq, "sc.bulk.store": w.hBulkStore,
			}[row.h]
			var refused string
			_ = w.Run(func(p *Proc) {
				if p.MyPC() == 0 {
					if row.payload != nil {
						p.ep.RequestBulk(p.T, 1, h, row.payload, row.a)
					} else {
						p.ep.RequestShort(p.T, 1, h, row.a)
					}
					return
				}
				if row.answered {
					p.reqs.Take("Split-C", 1, 0, p.reqs.Add(&landing{}))
				}
				if row.pending {
					p.reqs.Add(&landing{vdst: make([]float64, 4)})
				}
				refused = serveRefusal(p)
			})
			if !named.MatchString(refused) || !strings.Contains(refused, "node 0") || !strings.Contains(refused, row.want) {
				t.Errorf("handler failed with %q, want the named refusal (node 1, from node 0, %q)", refused, row.want)
			}
		})
	}
}

// serveRefusal serves p's endpoint until a handler panics and returns the
// panic's text: it awaits a count nothing advances.
func serveRefusal(p *Proc) (refusal string) {
	defer func() { refusal = fmt.Sprint(recover()) }()
	var never am.Count
	p.ep.Await(p.T, &never, 1)
	return ""
}
