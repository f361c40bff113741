package suite_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/suite"
)

// corpus is what each surviving pass is kept for, as scripted mutations of the
// real tree: every row plants one real bug — the kind the pass exists to catch
// — and names the pass that must report it, in the first file the row edits,
// with a message matching want, while every other pass stays silent. The
// per-pass fixtures show a pass still reports what its fixtures contain; only
// this shows it still reports what can go wrong in the product. A row whose
// anchor text is gone fails too: the code it mutates moved, and the row moves
// with it.
//
// A row whose pass reads "go test PKG -run REGEXP" plants a bug no pass can
// see and names the test that is kept for it: that test must fail on the
// mutated tree with output matching want, and the passes must stay silent.
var corpus = []struct {
	name  string
	pass  string
	want  string
	edits []edit
}{
	{"make in am.Endpoint.Poll", "hotpath", `hot path Poll: make allocates`, []edit{
		{"internal/am/am.go", "\th(t, msg)\n", "\t_ = make([]byte, 16)\n\th(t, msg)\n"}}},
	{"make in shmTx.send", "hotpath", `hot path send: make allocates`, []edit{
		{"internal/transport/netlive/shmring.go", "\tdepth := tx.publish(rec)\n\ttx.mu.Unlock()\n",
			"\tdepth := tx.publish(rec)\n\ttx.mu.Unlock()\n\t_ = make([]byte, n)\n"}}},
	{"fmt.Sprint two calls below the hot ReqTable.Add", "hotpath", `hot path Add: .*call into package fmt`, []edit{
		{"internal/am/reqtable.go", "func (tb *ReqTable[T]) Add(rec *T) uint64 {\n", "func (tb *ReqTable[T]) Add(rec *T) uint64 {\n\tnoteAdd()\n"},
		{"internal/am/reqtable.go", "// ReqTable is ", "func noteAdd() { _ = fmt.Sprint(1) }\n\n// ReqTable is "}}},

	{"readLoop's read-error return keeps its buffer", "bufown", `owned wire\.Buf leaks on this return path`, []edit{
		{"internal/transport/netlive/netlive.go", "\t\t\t\tbuf.Release()\n\t\t\t\tb.inner.Abort(fmt.Errorf(\"netlive: shard %d read body: %w\", b.shard, err))\n",
			"\t\t\t\tb.inner.Abort(fmt.Errorf(\"netlive: shard %d read body: %w\", b.shard, err))\n"}}},
	{"readLoop reads its buffer after the final Release", "bufown", `calls Bytes on a wire\.Buf after its final Release`, []edit{
		{"internal/transport/netlive/netlive.go", "\t\tif buf != nil {\n\t\t\tbuf.Release()\n\t\t}\n\t}\n}\n\n// linkEnded",
			"\t\tif buf != nil {\n\t\t\tbuf.Release()\n\t\t\t_ = buf.Bytes()\n\t\t}\n\t}\n}\n\n// linkEnded"}}},
	{"Poll releases the payload twice", "bufown", `wire\.Buf released twice on this path`, []edit{
		{"internal/am/am.go", "\tif msg.PayloadBuf != nil {\n\t\tmsg.PayloadBuf.Release()\n\t}\n\treturn true\n",
			"\tif msg.PayloadBuf != nil {\n\t\tmsg.PayloadBuf.Release()\n\t\tmsg.PayloadBuf.Release()\n\t}\n\treturn true\n"}}},
	{"handleInvoke spawns without a Retain", "bufown", `closure escapes with a borrowed payload buffer captured without Retain`, []edit{
		{"internal/core/rmi.go", "\t\tif pb != nil {\n\t\t\tpb.Retain()\n\t\t}\n", ""}}},

	{"InboxLen without inboxMu", "lockguard", `field inbox is guarded by inboxMu`, []edit{
		{"internal/machine/machine.go", "\tn.inboxMu.Lock()\n\tdefer n.inboxMu.Unlock()\n\treturn n.inbox.Len()\n", "\treturn n.inbox.Len()\n"}}},
	{"Abort without abortMu", "lockguard", `field causes is guarded by abortMu`, []edit{
		{"internal/transport/live/live.go", "\tb.abortMu.Lock()\n\tdefer b.abortMu.Unlock()\n\tb.causes = append(b.causes, cause)\n", "\tb.causes = append(b.causes, cause)\n"}}},
	// ROADMAP item 8 asked whether lockguard catches anything nothing else
	// does. These three drop a lock on a teardown or error path; CI's whole
	// -race list passes on each of them (CHANGES.md, PR 22, has the runs), so
	// lockguard is their only reporter and the rows are what keeps it.
	{"netlive.Backend.PeerStats without statsMu", "lockguard", `field peerStats is guarded by statsMu`, []edit{
		{"internal/transport/netlive/netlive.go", "func (b *Backend) PeerStats() map[int][]byte {\n\tb.statsMu.Lock()\n\tdefer b.statsMu.Unlock()\n", "func (b *Backend) PeerStats() map[int][]byte {\n"}}},
	{"shmShutdown closes a tx ring without tx.mu", "lockguard", `field closed is guarded by mu`, []edit{
		{"internal/transport/netlive/shmring.go", "\t\ttx.mu.Lock()\n\t\ttx.closed = true\n\t\ttx.mu.Unlock()\n", "\t\ttx.closed = true\n"}}},
	{"shmShutdown marks an rx ring dead without rx.mu", "lockguard", `field dead is guarded by mu`, []edit{
		{"internal/transport/netlive/shmring.go", "\t\t\trx.mu.Lock()\n\t\t\trx.dead = true\n\t\t\trx.r.gone.Store(1)\n\t\t\trx.mu.Unlock()\n", "\t\t\trx.dead = true\n\t\t\trx.r.gone.Store(1)\n"}}},
	// The parent's end-of-run wave state, opened by the parent's reading and
	// added to by the reader of each worker's answer.
	{"a wave opens without the wave mutex", "lockguard", `field (sum|left) is guarded by Mutex`, []edit{
		{"internal/transport/netlive/netlive.go", "\t\tb.wave.Lock()\n\t\tb.wave.sum, b.wave.left = c, b.shards-1\n\t\tb.wave.Unlock()\n",
			"\t\tb.wave.sum, b.wave.left = c, b.shards-1\n"}}},

	{"time.Sleep in lnode.release with the CPU held", "blockhold", `time\.Sleep.*while holding mu.*//mpmd:cpu mutex`, []edit{
		{"internal/transport/live/live.go", "func (nd *lnode) release() {\n\tnd.runPending()\n", "func (nd *lnode) release() {\n\ttime.Sleep(time.Microsecond)\n\tnd.runPending()\n"}}},
	{"Park waits on a channel with the CPU held", "blockhold", `channel receive while holding mu`, []edit{
		{"internal/transport/live/live.go", "\tfor !p.permit {\n\t\tp.cond.Wait()\n", "\tfor !p.permit {\n\t\t<-p.b.start\n\t\tp.cond.Wait()\n"}}},

	{"connMu then p.mu in shutdownSockets, p.mu then connMu in peer.fail", "lockorder", `lock order cycle`, []edit{
		{"internal/transport/netlive/netlive.go", "\tb.connMu.Lock()\n\tb.sockClosed = true\n",
			"\tb.connMu.Lock()\n\tfor _, p := range b.peers {\n\t\tif p != nil {\n\t\t\tp.mu.Lock()\n\t\t\tp.mu.Unlock()\n\t\t}\n\t}\n\tb.sockClosed = true\n"},
		{"internal/transport/netlive/netlive.go", "\tp.closed = true\n\tn := int64(0)\n",
			"\tp.closed = true\n\tp.b.connMu.Lock()\n\tp.b.connMu.Unlock()\n\tn := int64(0)\n"}}},
	{"Abort takes abortMu twice", "lockorder", `b\.abortMu is already held on every path`, []edit{
		{"internal/transport/live/live.go", "\tb.abortMu.Lock()\n\tdefer b.abortMu.Unlock()\n\tb.causes", "\tb.abortMu.Lock()\n\tb.abortMu.Lock()\n\tdefer b.abortMu.Unlock()\n\tb.causes"}}},

	{"Invoke keeps its call record: one allocated per call", "go test ./mpmd -run ^TestInvokeAllocs$", `warm null Invoke allocates 1\.00/op, budget 0`, []edit{
		{"mpmd/typed.go", "\tcall.Release()\n\treturn out, nil\n", "\treturn out, nil\n"}}},
	{"a one-way RMI gets a record nobody reads", "go test ./mpmd -run ^TestAsyncAllocs$", `paced InvokeOneWay of a null call allocates [1-9][.0-9]*/op, budget 0`, []edit{
		{"internal/core/rmi.go", "\trt.invoke(t, gp, method, args, nil, nil)\n", "\trt.invoke(t, gp, method, args, nil, &Future{mode: modeFuture})\n"}}},
	{"a future's record goes back to the pool at Wait", "go test ./internal/transport/conformance -run ^TestSimnet$/^Futures$", `is no longer done after later calls`, []edit{
		{"internal/core/rmi.go", "func (f *Future) Wait(t *threads.Thread) { f.rt.waitComp(t, f.rt.nodeOf(t), f) }\n",
			"func (f *Future) Wait(t *threads.Thread) { f.rt.waitComp(t, f.rt.nodeOf(t), f); f.reset(); futures.Put(f) }\n"}}},
	{"DecodePtr decodes over the value that was there", "go test ./internal/transport/conformance -run ^TestLive$/^ValueOwnership$", `after a put element 0 reads \[0 2 0\] \(<nil>\) and the value read before it \[0 2 0\]`, []edit{
		{"internal/rmigen/codec.go", "\tif c.FixedSize() == 0 {\n\t\treflect.NewAt(c.typ, ptr).Elem().SetZero()\n\t}\n", ""}}},
	// Only the row whose length is small: without the check the others
	// allocate what the hostile word says.
	{"Bytes.Decode trusts its length word", "go test ./internal/core -run ^TestArgDecodeHostileLengths$/^Bytes$/^length_past_the_payload$", `decode failed with "runtime error: slice bounds out of range`, []edit{
		{"internal/core/args.go", "\tn := lenWord(\"Bytes\", b, 1)\n", "\tn := int(binary.LittleEndian.Uint64(b))\n"}}},
	{"a scalar argument trusts its length", "go test ./internal/core -run ^(TestInvokeHostileWords|FuzzArgs)$", `(?s)handler failed with "runtime error: index out of range \[7\] with length 3".*failed with "runtime error: index out of range \[7\] with length 0", want a named core refusal`, []edit{
		{"internal/core/args.go", "\tif len(b) < 8 {\n\t\tpanic(fmt.Sprintf(\"core: %s argument truncated: %d bytes, a word is 8\", kind, len(b)))\n", "\tif false {\n\t\tpanic(fmt.Sprintf(\"core: %s argument truncated: %d bytes, a word is 8\", kind, len(b)))\n"}}},
	{"handleInvoke trusts its stub id", "go test ./internal/core -run ^TestInvokeHostileWords$/^stub_id_past_the_table$", `handler failed with "runtime error: index out of range`, []edit{
		{"internal/core/rmi.go", "\t\tif m.A[2] >= uint64(len(rt.methods)) {\n", "\t\tif false {\n"}}},
	{"handleInvoke trusts its name length", "go test ./internal/core -run ^TestInvokeHostileWords$/^name_length_past_the_payload$", `handler failed with "runtime error: slice bounds out of range`, []edit{
		{"internal/core/rmi.go", "\t\tif m.A[3] > uint64(len(m.Payload)) {\n", "\t\tif false {\n"}}},
	{"the installed wire decoder takes any handler id", "go test ./internal/transport/netlive -run ^TestTruncatedAMBody$/^handler_id_one_past_the_table$", `(?s)shmDrain = true, want false.*unknown kind 0.*want one error, naming "claimed source node 0 of shard 0"`, []edit{
		{"internal/am/am.go", " || uint64(binary.LittleEndian.Uint32(b[1:])) >= uint64(len(n.handlers)) {\n", " {\n"}}},
	// A record or frame from a node of the receiving shard reaches the
	// handler, which would answer a node that cannot have sent it: the
	// hostile rows' stand-in, and the fuzz target's seed of the ring row.
	{"a packet from a node outside its link's peer shard", "go test ./internal/transport/netlive -run ^(TestHostileSocketFrames|TestHostileRingRecords|FuzzRingRecords)$", `(?s)malformed bytes were dispatched as a packet 2->3.*packet 2->3 dispatched from the ring of shard 0 to shard 1`, []edit{
		{"internal/transport/netlive/netlive.go", "\tif src >= b.n || b.ShardOf(src) != from || !b.IsLocal(dst) {\n", "\tif src >= b.n || !b.IsLocal(dst) {\n"}}},
	// A producer that rings each time it finds the reader's flag set, without
	// winning the CAS that clears it, queues a doorbell per publish on the
	// socket while the reader sleeps: the control plane loses its bound.
	{"a doorbell on every publish while the reader is parked", "go test ./internal/transport/netlive -run ^TestControlPlaneBound$", `shard 0's socket queue held \d+ frames, above its bound of 3`, []edit{
		{"internal/transport/netlive/shmring.go", "\tif tx.r.parked.Load() == 1 && tx.r.parked.CompareAndSwap(1, 0) {\n", "\tif tx.r.parked.Load() == 1 {\n"}}},
	// Every failure the run does not end on is a wait until the watchdog: a
	// worker's death, a ring abandoned for its bytes, a handler that panicked
	// in a node's interrupt context and left that node's CPU held.
	{"a child's exit ends nothing", "go test ./internal/transport/netlive -run ^TestWorkerKilled$", `want an error naming "netlive: shard 1 exited: signal: killed" within 2s`, []edit{
		{"internal/transport/netlive/netlive.go", "\t\t\t\tb.inner.Abort(fmt.Errorf(\"netlive: shard %d exited: %w\", s, err))\n", "\t\t\t\t_ = fmt.Errorf(\"netlive: shard %d exited: %w\", s, err)\n"}}},
	{"an abandoned ring ends nothing", "go test ./internal/transport/netlive -run ^TestRingCorruptedMidRun$/^record_longer_than_the_published_bytes$", `the runs ended .* after the bad record, want within 1s`, []edit{
		{"internal/transport/netlive/shmring.go", "\tb.inner.Abort(fmt.Errorf(\"netlive: shm ring from shard %d abandoned", "\t_ = (fmt.Errorf(\"netlive: shm ring from shard %d abandoned"}}},
	{"a panic on arrival leaves its node's CPU held until the watchdog", "go test ./internal/core -run ^TestBlockingMethodInInterruptPanics$", `want an error naming node 1's interrupt context within 100ms`, []edit{
		{"internal/transport/live/live.go", "\t\tdefer nd.unwound()\n", ""}}},
	{"the wire decoder takes frames no sender makes (fuzz seeds)", "go test ./internal/am -run ^FuzzWireMsg$", `decoded a short message with a 3-byte payload "abc"`, []edit{
		{"internal/am/am.go", " || b[0]&^1 != 0 || b[0] == 0 && len(b) > wireHeaderLen {\n", " {\n"}}},
	{"the installed wire decoder takes any handler id (fuzz seeds)", "go test ./internal/am -run ^FuzzWireMsg$", `decoded a message for handler 1, 1 registered`, []edit{
		{"internal/am/am.go", " || uint64(binary.LittleEndian.Uint32(b[1:])) >= uint64(len(n.handlers)) {\n", " {\n"}}},
	// The remote-memory protocol's checks, through both runtimes' tables and
	// the fuzz target's seeds (seed#3 is the table's "offset at part length").
	{"a Split-C access trusts its segment word", "go test ./internal/splitc -run ^TestSplitCHostileWords$/^segment_past_the_table$", `handler failed with "runtime error: index out of range`, []edit{
		{"internal/am/mem.go", "\tif seg >= uint64(len(parts)) || parts[seg] == nil {\n", "\tif false {\n"}}},
	{"a Split-C access trusts its offset and length words", "go test ./internal/splitc -run ^TestSplitCHostileWords$/^length_past_the_part$", `handler failed with "runtime error: index out of range`, []edit{
		{"internal/am/mem.go", "\tif off > l || n > l-off {\n", "\tif false {\n"}}},
	{"a remote-memory access trusts its offset word", "go test ./internal/am -run ^FuzzMem$/^seed#3$", `node 1 failed with "runtime error: index out of range \[4\] with length 4", want a named refusal`, []edit{
		{"internal/am/mem.go", "\tif off > l || n > l-off {\n", "\tif false {\n"}}},
	// A GP access served as a Dist one: the variable-size element goes back
	// as a payload-form reply, which node 0 never asked for.
	{"a GP access takes a segment of other elements", "go test ./internal/core -run ^TestDistHostileWords$/^GP_read_of_a_segment_of_variable-size_elements$", `node 0 mem reply from node 1 for unknown request 1`, []edit{
		{"internal/am/mem.go", "\tif _, ok := part.(F64Part); f64 && !ok {\n", "\tif _, ok := part.(F64Part); false && !ok {\n"}}},
	{"a GP access carries a payload", "go test ./internal/core -run ^TestDistHostileWords$/^GP_read_with_a_payload$", `node 0 mem reply from node 1 for unknown request 1`, []edit{
		{"internal/am/mem.go", "\tcase thread && len(b) > 0:\n", "\tcase false:\n"}}},
	{"a collective message trusts its slot word", "go test ./internal/coll -run ^TestCollHostileWords$/^slot_past_the_machine$", `handler failed with "<nil>"`, []edit{
		{"internal/coll/coll.go", "\tcase uint64(k.slot) >= n:\n", "\tcase false:\n"}}},
	{"a collective message overwrites one not yet taken", "go test ./internal/coll -run ^TestCollHostileWords$/^second_message_for_a_filled_slot$", `handler failed with "<nil>"`, []edit{
		{"internal/coll/coll.go", "\tcase dup:\n", "\tcase dup && false:\n"}}},
	{"a wall-clock machine charges its modelled costs", "go test ./internal/bench -run ^TestRunStats$", `live: busy [1-9]\d*ns, .*want a wall-clock machine to charge nothing`, []edit{
		{"internal/threads/threads.go", "\tif d != 0 && t.s.modelled {\n", "\tif d != 0 {\n"}}},
	{"a wall-clock machine counts the lock pairs it elides", "go test ./internal/bench -run ^TestRunStats$", `thread\.sync [1-9]\d*; want a wall-clock machine to charge nothing`, []edit{
		{"internal/threads/threads.go", "\tfor i := 0; i < n && t.s.modelled; i++ {\n", "\tfor i := 0; i < n; i++ {\n"}}},
	// A notify that lands while the holder runs the arrival is stranded: the
	// hammer's round never opens and its proc stays parked.
	{"release does not look at the pending count after the unlock", "go test ./internal/transport/live -run ^TestNotifyNeverStrandedHammer$", `no completion after 5s: 1 proc\(s\) still alive: \[rx\]`, []edit{
		{"internal/transport/live/live.go", "\tnd.mu.Unlock()\n\tfor nd.pend.Load() != 0 {\n\t\tif !nd.mu.TryLock() {\n\t\t\treturn\n\t\t}\n\t\tnd.runPending()\n\t\tnd.mu.Unlock()\n\t}\n}\n", "\tnd.mu.Unlock()\n}\n"}}},
	// The sender of a warm null RMI finds node 1 idle; without the interrupt
	// it wakes node 1's poller to run the handler, once per call.
	{"a local send to an idle node wakes a thread to handle it", "go test ./internal/core -run ^TestWarmNullRMIWakesNoThread$", `node 1 ran 0 interrupts and dispatched 300 threads in 300 warm null RMIs, want 300 and 0`, []edit{
		{"internal/am/am.go", "\tif ep.node.Interrupted() && ", "\tif false && ep.node.Interrupted() && "}}},
	{"a poll is no delivery point", "go test ./internal/transport/conformance -run ^TestLive$/^PollDelivers$", `notify never got the CPU from a thread that computes and polls`, []edit{
		{"internal/am/am.go", "\tt.Deliver()\n", ""}}},
	{"a message counts as handled before its handler runs", "go test ./internal/transport/conformance -run ^TestSimnet$/^OneWayChain$", `it counted as handled before it ran`, []edit{
		{"internal/am/am.go", "\th(t, msg)\n\t// Handled once its handler is done, never before: a run whose last\n\t// handler still runs has not ended.\n\tep.node.Acct.Count(machine.CntHandlersRun, 1)\n",
			"\tep.node.Acct.Count(machine.CntHandlersRun, 1)\n\th(t, msg)\n"}}},
	{"a worker's stats payload merges a negative count (fuzz seeds)", "go test ./internal/machine -run ^FuzzClusterStats$", `merged a negative am\.handlers`, []edit{
		{"internal/machine/accounting.go", "\t\tif v < 0 || v > limit {\n", "\t\tif v > limit {\n"}}},
	{"a wall-clock wait yields to a ready sibling", "go test ./internal/transport/conformance -run ^TestLive$/^TwoWaitersOneNode$", `node 0 switched threads \d+ times while two threads waited on one count, want at most 24`, []edit{
		{"internal/am/am.go", "\t\tcase !ep.modelled || ep.stopped:\n", "\t\tcase !ep.stopped && t.Scheduler().ReadyLen() > 0:\n\t\t\tt.Yield()\n\t\tcase !ep.modelled || ep.stopped:\n"}}},
}

// TestMutationCorpus runs the suite over each mutated tree — listed once,
// re-checked per row with the mutated files overlaid in memory — and requires
// the row's pass to report. A pass dropped from suite.Analyzers(), or one that
// stopped seeing real bugs, fails its rows here.
func TestMutationCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module once per mutation")
	}
	root, listing := tree(t)
	for _, row := range corpus {
		t.Run(row.name, func(t *testing.T) {
			overlay := mutate(t, root, row.edits)
			pkgs, err := listing.Check(overlay)
			if err != nil {
				t.Fatalf("the mutation must still type-check: %v", err)
			}
			var out strings.Builder
			if _, _, err := analysis.Analyze(&out, pkgs, suite.Analyzers()); err != nil {
				t.Fatal(err)
			}
			if args, ok := strings.CutPrefix(row.pass, "go test "); ok {
				if out.Len() != 0 {
					t.Errorf("this mutation is %s's to catch, but mpmdvet said:\n%s", row.pass, out.String())
				}
				testFails(t, root, overlay, strings.Fields(args), row.want)
				return
			}
			want := regexp.MustCompile(`^` + regexp.QuoteMeta(filepath.Join(root, row.edits[0].file)) +
				`:\d+:\d+: ` + row.pass + `: .*` + row.want)
			reported := false
			for _, line := range strings.Split(out.String(), "\n") {
				reported = reported || want.MatchString(line)
				if line != "" && !strings.Contains(line, ": "+row.pass+": ") {
					t.Errorf("this mutation is %s's alone, but another pass spoke: %s", row.pass, line)
				}
			}
			if !reported {
				t.Errorf("%s did not report this mutation (want a diagnostic matching %q); mpmdvet said:\n%s", row.pass, want, out.String())
			}
		})
	}
}

// testFails runs go test with args in the module at root, the overlay's files
// replacing the tree's, and requires the run to fail with output matching
// want.
func testFails(t *testing.T, root string, overlay map[string][]byte, args []string, want string) {
	t.Helper()
	dir := t.TempDir()
	replace := map[string]string{}
	for path, src := range overlay {
		tmp := filepath.Join(dir, strings.ReplaceAll(path, string(filepath.Separator), "_"))
		if err := os.WriteFile(tmp, src, 0o644); err != nil {
			t.Fatal(err)
		}
		replace[path] = tmp
	}
	spec, err := json.Marshal(map[string]any{"Replace": replace})
	if err != nil {
		t.Fatal(err)
	}
	specFile := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(specFile, spec, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", append([]string{"test", "-overlay=" + specFile, "-count=1"}, args...)...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go test %s passes on the mutated tree:\n%s", strings.Join(args, " "), out)
	}
	if !regexp.MustCompile(want).Match(out) {
		t.Errorf("go test %s failed, but not with %q:\n%s", strings.Join(args, " "), want, out)
	}
}
