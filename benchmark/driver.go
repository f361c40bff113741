package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/machine"
	"repro/internal/metrics"
)

// benchSpec is BENCHMARK.json: the one list of workload and metric names,
// units and bounds. The benchmark prints exactly these and refuses to run if
// it has no value for one of them.
type benchSpec struct {
	RunSeconds float64                      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string } `json:"workloads"`
	EndToEnd   []metricDef                  `json:"end_to_end"`
	PerLayer   []metricDef                  `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec() (*benchSpec, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

const (
	scratchDir = ".bench_build/run" // netlive rendezvous directories, removed after each repetition
	traceDir   = "benchmark/out"    // Chrome trace-event files of the traced repetitions
)

// metricValue is one reported number; Reps are the per-repetition values its
// median was taken over (what -compare reads the spread from).
type metricValue struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Reps  []float64 `json:"reps,omitempty"`
}

type wlReport struct {
	Workload  string                 `json:"workload"`
	Transport string                 `json:"transport"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	allocs  []float64 // untraced allocations per op, per repetition
	steal   float64   // largest host-steal share of an untraced repetition
	pooled  []float64 // untraced latency samples of every repetition, ns
	maxNs   int64
	samples int64
}

// report is the file -out writes and -compare reads.
type report struct {
	Env       map[string]string `json:"env"`
	Workloads []*wlReport       `json:"workloads"`
}

// reps is how many untraced repetitions a workload runs, each a fresh machine
// in a fresh process; every end-to-end metric is the median over them.
const reps = 5

type driver struct {
	seed    int64
	reps    int     // reps, except in the smoke test
	seconds float64 // measured time per workload; 0: run_seconds of BENCHMARK.json
	traced  bool
	spec    *benchSpec
	exe     string

	window time.Duration      // one repetition's measured time
	shared map[string]float64 // per-layer metrics that do not depend on the workload, measured once
}

func (d *driver) run(only, out string) error {
	var err error
	if d.spec, err = loadSpec(); err != nil {
		return err
	}
	if d.exe, err = os.Executable(); err != nil {
		return err
	}
	if d.seconds == 0 {
		d.seconds = d.spec.RunSeconds
	}
	if d.seconds <= 0 {
		return errors.New("need -seconds > 0")
	}
	var names []string
	for _, w := range d.spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			return fmt.Errorf("BENCHMARK.json names workload %q, which the benchmark does not have", w.Name)
		}
		if only == "" || only == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown workload %q", only)
	}
	// --seconds is split evenly over the repetitions of a run, the traced one
	// included. The whole suite measures what --trace 0 measures, so that its
	// result files carry the registered configuration, and then runs the
	// traced pass on top.
	n := d.reps
	if only == "" {
		d.traced = true
	} else if d.traced {
		n++
	}
	d.window = time.Duration(d.seconds / float64(n) * float64(time.Second))
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}

	rep := &report{Env: d.env()}
	for _, k := range slices.Sorted(maps.Keys(rep.Env)) {
		fmt.Printf("env %-12s %s\n", k, rep.Env[k])
	}
	// End-to-end numbers always come from the untraced pass; the traced pass
	// runs after it and only feeds the per-layer metrics.
	for _, n := range names {
		w, err := d.untraced(n)
		if err != nil {
			return err
		}
		rep.Workloads = append(rep.Workloads, w)
		d.print(w, d.spec.EndToEnd)
	}
	if d.traced {
		for _, w := range rep.Workloads {
			if err := d.tracedPass(w); err != nil {
				return err
			}
			d.print(w, d.spec.PerLayer)
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if only == "" {
		return nil
	}
	// The last line: one JSON object with this run's verdict and metrics.
	w := rep.Workloads[0]
	defs := d.spec.EndToEnd
	if d.traced {
		defs = d.spec.PerLayer
	}
	last := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{w.Failed == 0, w.Attempted, w.Failed, map[string]metricValue{}}
	for _, def := range defs {
		v := w.Metrics[def.Name]
		last.Metrics[def.Name] = metricValue{Value: v.Value, Unit: v.Unit}
	}
	return json.NewEncoder(os.Stdout).Encode(last)
}

// env is what BENCH_live.json and BENCH_net.json never recorded: enough to
// tell whether two result files may be compared.
func (d *driver) env() map[string]string {
	e := map[string]string{
		"num_cpu":     strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs":  strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":          runtime.Version(),
		"os_arch":     runtime.GOOS + "/" + runtime.GOARCH,
		"kernel":      "unknown",
		"commit":      "unknown",
		"seed":        strconv.FormatInt(d.seed, 10),
		"reps":        strconv.Itoa(d.reps),
		"shard_procs": strconv.Itoa(shardProcs(repSpec{Workload: "net_null"})),
		"window":      d.window.String(),
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		e["kernel"] = string(b)
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e["commit"] = strings.TrimSpace(string(out))
	}
	return e
}

func (d *driver) print(w *wlReport, defs []metricDef) {
	for _, def := range defs {
		v := w.Metrics[def.Name]
		fmt.Printf("%-10s %-36s %14.4f %s\n", w.Workload, def.Name, v.Value, v.Unit)
	}
	fmt.Printf("%-10s %-36s %14d count\n", w.Workload, "ops_attempted", w.Attempted)
	fmt.Printf("%-10s %-36s %14d count\n", w.Workload, "ops_failed", w.Failed)
	fmt.Printf("%-10s %-36s %14s\n", w.Workload, "transport", w.Transport)
}

// set stores a metric, taking the unit from BENCHMARK.json; a name the file
// does not list is a bug in the benchmark.
func (d *driver) set(w *wlReport, name string, value float64, reps []float64) {
	for _, defs := range [][]metricDef{d.spec.EndToEnd, d.spec.PerLayer} {
		for _, def := range defs {
			if def.Name == name {
				w.Metrics[name] = metricValue{Value: value, Unit: def.Unit, Reps: reps}
				return
			}
		}
	}
	panic("benchmark: metric " + name + " is not in BENCHMARK.json")
}

// check reports the first metric of defs the workload has no value for.
func (d *driver) check(w *wlReport, defs []metricDef) error {
	for _, def := range defs {
		if _, ok := w.Metrics[def.Name]; !ok {
			return fmt.Errorf("%s: no value for metric %s listed in BENCHMARK.json", w.Workload, def.Name)
		}
	}
	return nil
}

// child runs one repetition in a fresh process (a netlive machine adds one
// worker below it) and returns its report with the process tree's CPU time.
// A zero Window asks for set-up only. A repetition that outlives its hard
// deadline is killed with its whole process group and comes back as one
// attempted, failed op.
func (d *driver) child(spec repSpec) (*repResult, error) {
	wl := workloads[spec.Workload]
	spec.Seed, spec.Scratch, spec.Warmup = d.seed, scratchDir, wl.warmup
	if spec.Window == 0 {
		spec.Window = time.Millisecond // set-up only: a token window and no settling
	} else {
		spec.Settle = min(wl.settle, spec.Window)
	}
	ctx, cancel := context.WithTimeout(context.Background(), repDeadline(spec.Window))
	defer cancel()
	spec.T0 = time.Now().UnixNano()
	arg, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, d.exe, "-rep", string(arg))
	if n := shardProcs(spec); n > 0 {
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(n))
	}
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 2 * time.Second
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stolen, start := stealTicks(), time.Now()
	err = cmd.Run()
	stolen = stealTicks() - stolen
	capacity := time.Since(start).Seconds() * userHz * float64(runtime.NumCPU())
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s repetition killed at its %v deadline\n", spec.Workload, repDeadline(spec.Window))
		return &repResult{Issued: 1, Failed: 1}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("%s repetition: %w", spec.Workload, err)
	}
	var res repResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s repetition output: %w", spec.Workload, err)
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	res.CPUNs = ru.Utime.Nano() + ru.Stime.Nano()
	res.StealShare = float64(stolen) / capacity
	return &res, nil
}

// shardProcs is the GOMAXPROCS each process of a netlive repetition runs with
// (its re-exec'd worker inherits the environment): the host's CPUs divided
// among the shards, so the machine as a whole never has more running threads
// than the host has CPUs. With the default, every shard gets every CPU, and on
// the 2-CPU box the two shards' four Ps take turns on two cores: 40 % of null
// RMIs then wait 20-80 us for a goroutine hand-off that crosses Ps to be
// scheduled by the kernel, and the number measures the host's scheduler (ten
// seeds spread 25 %). 0 leaves GOMAXPROCS alone: in-process workloads, and the
// one side run that measures exactly that regime.
func shardProcs(spec repSpec) int {
	wl := workloads[spec.Workload]
	if wl.shards == 1 || spec.Oversub {
		return 0
	}
	return max(1, runtime.NumCPU()/wl.shards)
}

// userHz is the unit of /proc/stat's counters (USER_HZ, 100 on every Linux).
const userHz = 100

// stealTicks reads how long the hypervisor has run something else while this
// machine had work to do (the 8th counter of /proc/stat's cpu line); 0 where
// there is no such counter. A neighbour's burst shows here, and the net_*
// workloads, whose two processes must run at the same time, collapse under it.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}

func (w *wlReport) count(r *repResult) {
	w.Attempted += r.Issued
	w.Failed += r.Failed
}

// untraced runs the repetitions of one workload with every probe off and
// reports each end-to-end metric as the median over the repetitions.
func (d *driver) untraced(name string) (*wlReport, error) {
	w := &wlReport{Workload: name, Metrics: map[string]metricValue{}}
	per := map[string][]float64{}
	for k := 0; k < d.reps; k++ {
		r, err := d.child(repSpec{Workload: name, Window: d.window})
		if err != nil {
			return nil, err
		}
		w.count(r)
		if r.Ops == 0 {
			continue // killed at the deadline: a failure, not a measurement
		}
		w.Transport = r.Transport
		lat := floats(r.Lat)
		w.pooled = append(w.pooled, lat...)
		w.maxNs = max(w.maxNs, r.MaxNs)
		w.samples += r.Samples
		add := func(name string, v float64) { per[name] = append(per[name], v) }
		add("ops_per_s", float64(r.Ops)/(float64(r.WindowNs)/1e9))
		add("op_p50_us", median(lat)/1e3)
		add("cpu_us_per_op", float64(r.CPUNs)/1e3/float64(r.Issued))
		w.allocs = append(w.allocs, float64(r.Mallocs)/float64(r.Ops))
		w.steal = max(w.steal, r.StealShare)
		add("peak_rss_mb", float64(r.MaxRSSKB)/1024)
		add("setup_s", float64(r.SetupNs)/1e9)
	}
	if len(per["ops_per_s"]) == 0 {
		return nil, fmt.Errorf("%s: no repetition finished before its deadline", name)
	}
	// Set-up is short and its time noisy, so it is sampled as often again by
	// repetitions that set up, warm up and stop after a token window.
	for k := 0; k < d.reps; k++ {
		r, err := d.child(repSpec{Workload: name})
		if err != nil {
			return nil, err
		}
		w.count(r)
		if r.Ops > 0 {
			per["setup_s"] = append(per["setup_s"], float64(r.SetupNs)/1e9)
		}
	}
	for _, def := range d.spec.EndToEnd {
		d.set(w, def.Name, median(per[def.Name]), per[def.Name])
	}
	return w, d.check(w, d.spec.EndToEnd)
}

// percentile returns the p-th percentile (nearest rank) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(int(math.Ceil(p/100*float64(len(sorted))))-1, len(sorted)-1)]
}

// tracedPass runs the workload once more with the benchmark's probes on,
// then the isolated layer loops, and fills in the per-layer metrics.
func (d *driver) tracedPass(w *wlReport) error {
	set := func(name string, v float64) { d.set(w, name, v, nil) }
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	tr, err := d.child(repSpec{Workload: w.Workload, Window: d.window, Traced: true,
		TraceOut: filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.trace.json", w.Workload, d.seed))})
	if err != nil {
		return err
	}
	w.count(tr)
	if tr.Ops == 0 {
		return fmt.Errorf("%s: traced repetition did not finish before its deadline", w.Workload)
	}

	// driver: the benchmark's own view of the untraced repetitions.
	slices.Sort(w.pooled)
	set("driver.op_p90_us", percentile(w.pooled, 90)/1e3)
	set("driver.op_p99_us", percentile(w.pooled, 99)/1e3)
	set("driver.op_max_us", float64(w.maxNs)/1e3)
	set("driver.samples", float64(w.samples))
	set("driver.rep_cv", cv(w.Metrics["ops_per_s"].Reps))
	d.set(w, "driver.allocs_per_op", median(w.allocs), w.allocs)
	set("driver.host_steal_share", w.steal)
	set("driver.trace_overhead_ratio", float64(tr.Ops)/(float64(tr.WindowNs)/1e9)/w.Metrics["ops_per_s"].Value)

	// core: the three legs partition the traced op, a from-outside Table 4.
	var legs legMeans
	if tr.Legs != nil {
		legs = *tr.Legs
	}
	set("core.request_leg_us", legs.Request/1e3)
	set("core.handler_us", legs.Handler/1e3)
	set("core.reply_leg_us", legs.Reply/1e3)
	set("core.traced_op_mean_us", legs.Op/1e3)

	// Counter rates: whole-run totals over every shard ÷ every op issued.
	ops := float64(tr.Issued)
	acct := func(c machine.Cnt) float64 { return float64(tr.Acct.Counters[c]) }
	ctr := func(c metrics.Ctr) float64 { return float64(tr.Metrics.Counter(c)) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	set("core.rmi_cold_per_kop", 1e3*acct(machine.CntRMICold)/ops)
	set("tham.stub_miss_per_kop", 1e3*acct(machine.CntStubMiss)/ops)
	set("tham.buf_reuse_ratio", ratio(acct(machine.CntBufReuse), acct(machine.CntBufReuse)+acct(machine.CntBufAlloc)))
	set("am.msgs_short_per_op", acct(machine.CntMsgShort)/ops)
	set("am.msgs_bulk_per_op", acct(machine.CntMsgBulk)/ops)
	set("am.bytes_per_op", acct(machine.CntBytesSent)/ops)
	set("am.polls_per_op", acct(machine.CntPolls)/ops)
	set("am.handlers_per_op", acct(machine.CntHandlersRun)/ops)
	set("threads.ctx_switch_per_op", acct(machine.CntContextSwitch)/ops)
	set("threads.create_per_op", acct(machine.CntThreadCreate)/ops)
	set("threads.sync_ops_per_op", acct(machine.CntSyncOp)/ops)
	set("threads.lock_contended_per_kop", 1e3*acct(machine.CntLockContended)/ops)
	set("live.notifies_per_op", ctr(metrics.CtrNotifies)/ops)
	set("live.notify_batch_factor", ratio(ctr(metrics.CtrNotifies), ctr(metrics.CtrNotifyBatches)))
	set("live.notify_depth_max", float64(tr.Metrics.Gauge(metrics.GgeNotifyDepth).Max))
	set("live.poll_batch_p50", float64(tr.Metrics.Hist(metrics.HstPollBatch).P50()))
	set("netlive.frames_out_per_op", ctr(metrics.CtrFramesOut)/ops)
	set("netlive.bytes_out_per_op", (ctr(metrics.CtrBytesOut)+ctr(metrics.CtrShmBytesOut))/ops)
	set("netlive.shm_frames_per_op", ctr(metrics.CtrShmFramesOut)/ops)
	set("netlive.doorbells_per_kop", 1e3*ctr(metrics.CtrShmDoorbells)/ops)
	set("netlive.park_wake_ratio", ratio(ctr(metrics.CtrShmParkWakes), ctr(metrics.CtrShmSpinWakes)+ctr(metrics.CtrShmParkWakes)))
	set("netlive.shm_ring_depth_max_bytes", float64(tr.Metrics.Gauge(metrics.GgeShmRingDepth).Max))
	set("netlive.peer_ring_depth_max", float64(tr.Metrics.Gauge(metrics.GgePeerRingDepth).Max))
	set("netlive.writer_stall_p50_us", float64(tr.Metrics.Hist(metrics.HstWriterStall).P50())/1e3)
	set("netlive.spawn_s", float64(tr.SpawnNs)/1e9)
	set("metrics.rmi_hist_p50_us", float64(tr.RMIHistP50Ns)/1e3)

	// net_em3d: where node 0's step went.
	var em em3dMeans
	if tr.EM3D != nil {
		em = *tr.EM3D
	}
	set("mpmd.dist_get_share", ratio(em.Get, em.Step))
	set("mpmd.compute_share", ratio(em.Compute, em.Step))
	set("coll.barrier_share", ratio(em.Barrier, em.Step))
	set("coll.barrier_us", em.Barrier/2/1e3) // two barriers per step
	set("coll.allreduce_us", em.AllReduce/1e3)

	ns, allocs, err := rmigenCodec(workloadArg(w.Workload))
	if err != nil {
		return err
	}
	set("rmigen.codec_ns_per_call", ns)
	set("rmigen.codec_allocs_per_call", allocs)
	if d.shared == nil {
		if err := d.measureShared(w); err != nil {
			return err
		}
	}
	for k, v := range d.shared {
		set(k, v)
	}
	return d.check(w, d.spec.PerLayer)
}

// measureShared fills d.shared: short side runs that switch one thing (the
// net_null body over the socket path, and with every shard at the host's full
// GOMAXPROCS; live_null with the runtime's own tracer attached) and the
// isolated layer loops. Their ops count towards w.
func (d *driver) measureShared(w *wlReport) error {
	side := func(s repSpec) (*repResult, error) {
		s.Window = d.window / 4
		r, err := d.child(s)
		if err == nil {
			w.count(r)
			if r.Ops == 0 {
				err = fmt.Errorf("%s side run did not finish before its deadline", s.Workload)
			}
		}
		return r, err
	}
	sock, err := side(repSpec{Workload: "net_null", NoShm: true})
	if err != nil {
		return err
	}
	over, err := side(repSpec{Workload: "net_null", Oversub: true})
	if err != nil {
		return err
	}
	off, err := side(repSpec{Workload: "live_null"})
	if err != nil {
		return err
	}
	on, err := side(repSpec{Workload: "live_null", Attach: true})
	if err != nil {
		return err
	}
	shared := map[string]float64{
		"netlive.socket_null_rtt_us":  median(floats(sock.Lat)) / 1e3,
		"netlive.oversub_null_us":     float64(over.WindowNs) / float64(over.Ops) / 1e3,
		"trace.attach_overhead_ratio": (float64(on.Ops) / float64(on.WindowNs)) / (float64(off.Ops) / float64(off.WindowNs)),
	}
	if err := layerLoops(shared); err != nil {
		return err
	}
	d.shared = shared
	return nil
}

func floats(v []int64) []float64 {
	f := make([]float64, len(v))
	for i, x := range v {
		f[i] = float64(x)
	}
	return f
}

// workloadArg is a value of the workload's RMI argument type, for the rmigen
// codec loop.
func workloadArg(name string) any {
	switch name {
	case "live_bulk":
		return make([]byte, bulkBytes)
	case "net_stream":
		return StreamMsg{Seq: 1, Data: make([]byte, streamSizes[2])}
	case "net_em3d":
		return 1.5
	}
	return int64(0) // a null RMI has no argument; one word is the smallest the codec moves
}

// cv is the coefficient of variation of v.
func cv(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	mean, ss := 0.0, 0.0
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	for _, x := range v {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss/float64(len(v)-1)) / mean
}
