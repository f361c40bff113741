package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/transport/netlive"
	"repro/mpmd"
)

// maxSpans bounds the span store of a traced repetition (16 B each); later
// ops are still counted, checked and sampled, just not kept as spans.
const maxSpans = 1 << 20

// maxSamples bounds the latency samples a repetition keeps and ships to the
// driver. It is a power of two, which sampler.add relies on.
const maxSamples = 1 << 14

// sampler keeps at most maxSamples of a repetition's op latencies, evenly
// spaced over the window however many ops complete: every stride-th one, and
// when the buffer fills it drops every other sample and doubles the stride.
// The buffer is allocated and touched before the window, so the harness's own
// footprint is the same for a slow program and a fast one; peak_rss_mb would
// otherwise grow with throughput and with --seconds.
type sampler struct {
	buf    []int64
	stride int64
	wait   int64 // ops to skip before the next kept sample
	n      int64 // latencies offered
	max    int64
}

func newSampler() *sampler {
	s := &sampler{buf: make([]int64, maxSamples), stride: 1}
	for i := range s.buf {
		s.buf[i] = 1 // fault every page in now, not during the window
	}
	s.buf = s.buf[:0]
	return s
}

func (s *sampler) add(d int64) {
	s.n++
	s.max = max(s.max, d)
	if s.wait > 0 {
		s.wait--
		return
	}
	if len(s.buf) == cap(s.buf) {
		// Full at op maxSamples*stride, a multiple of the doubled stride too,
		// so this op is the next one to keep.
		half := len(s.buf) / 2
		for i := 0; i < half; i++ {
			s.buf[i] = s.buf[2*i]
		}
		s.buf = s.buf[:half]
		s.stride *= 2
	}
	s.buf = append(s.buf, d)
	s.wait = s.stride - 1
}

// repSpec is one repetition: one fresh machine in one fresh process. The
// driver passes it as JSON on the command line, so a re-exec'd netlive worker
// (which inherits the argument vector) builds the identical program.
type repSpec struct {
	Workload string
	Seed     int64
	Window   time.Duration
	Warmup   int64
	Settle   time.Duration // unmeasured ops after set-up and before the window
	Traced   bool          // benchmark-owned spans and handler stamps on
	NoShm    bool          // netlive over the socket path (netlive.socket_null_rtt_us only)
	Oversub  bool          // every shard at the host's full GOMAXPROCS (netlive.oversub_null_us only)
	Attach   bool          // the runtime's own trace.Attach on (trace.attach_overhead_ratio only)
	T0       int64         // driver wall clock (UnixNano) just before it started this process
	Scratch  string        // directory for the netlive rendezvous, relative so socket paths stay short
	TraceOut string        // Chrome trace-event file to write (traced only)
}

// repResult is what a repetition reports to the driver on stdout.
type repResult struct {
	Ops       int64   `json:"ops"`    // completed inside the window
	Issued    int64   `json:"issued"` // warm-up included: the denominator of CPU and counter rates
	Failed    int64   `json:"failed"`
	WindowNs  int64   `json:"window_ns"`
	SetupNs   int64   `json:"setup_ns"` // process start → first measured op
	Mallocs   uint64  `json:"mallocs"`  // client process, window only
	Lat       []int64 `json:"lat_ns"`   // per-op latency samples (at most maxSamples, evenly spaced)
	Samples   int64   `json:"samples"`  // latencies measured, kept or not
	MaxNs     int64   `json:"max_ns"`
	Transport string  `json:"transport"` // inproc | shm | socket: what actually carried the frames
	SpawnNs   int64   `json:"spawn_ns"`  // netlive.New

	// Whole-run totals over every shard, read after Run.
	Acct    machine.Snapshot `json:"acct"`
	Metrics metrics.Snapshot `json:"metrics"`
	// RMIHistP50Ns is the runtime's own log2 latency histogram, client shard.
	RMIHistP50Ns int64 `json:"rmi_hist_p50_ns"`

	// Traced repetitions only: window means in ns.
	Legs *legMeans  `json:"legs,omitempty"`
	EM3D *em3dMeans `json:"em3d,omitempty"`

	// MaxRSSKB is the largest peak RSS of a process of the machine.
	MaxRSSKB int64 `json:"max_rss_kb"`

	// Filled in by the driver: CPU time from wait4's rusage (workers
	// included), and the share of the machine's CPU time the hypervisor took
	// while the process ran.
	CPUNs      int64   `json:"cpu_ns"`
	StealShare float64 `json:"steal_share"`
}

// legMeans is the from-outside Table 4 of one traced repetition: the three
// legs partition every op, so they sum to Op.
type legMeans struct{ Request, Handler, Reply, Op float64 }

// em3dMeans splits the traced EM3D step at node 0.
type em3dMeans struct{ Get, Compute, Barrier, Step, AllReduce float64 }

type span struct{ s, e int64 }

// rep is the state of the repetition running in this process.
type rep struct {
	spec repSpec
	res  repResult

	epoch time.Time
	lat   *sampler
	// group consecutive RMIs form one latency sample; groupNs and grouped
	// accumulate the one in progress.
	group, groupNs, grouped int64
	// spans holds a traced window: one per RMI (per step for net_em3d).
	spans []span
	// handler holds the server-side entry/exit pairs of a traced window.
	handler []float64
	// steps holds node 0's in-step stamps of a traced net_em3d window.
	steps []em3dStamps

	errMu sync.Mutex
	err   error // first failure of a node program that is not an op failure
}

// fail records a node program's error; the repetition then exits non-zero.
func (r *rep) fail(err error) {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	if r.err == nil {
		r.err = err
	}
}

// now reads the repetition clock in ns. Traced runs use wall-clock offsets
// from the driver's t0 so stamps taken in another process line up; untraced
// runs use the monotonic clock.
func (r *rep) now() int64 {
	if r.spec.Traced {
		return time.Now().UnixNano() - r.spec.T0
	}
	return int64(time.Since(r.epoch))
}

// record takes one completed RMI (or step) of the window.
func (r *rep) record(s, e int64) {
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, span{s, e})
	}
	r.groupNs += e - s
	if r.grouped++; r.grouped == r.group {
		r.lat.add(r.groupNs / r.group)
		r.groupNs, r.grouped = 0, 0
	}
}

// endSetup marks the end of set-up: everything before it (machine build,
// worker re-exec, rendezvous, ring create, class registration, cold RMIs,
// warm-up ops) is setup_s. It returns the repetition clock at which the
// settling ops that follow may stop: they run for spec.Settle, checked like any
// other op but neither timed nor part of set-up, which a fixed second would
// otherwise drown.
func (r *rep) endSetup() int64 {
	r.res.SetupNs = time.Now().UnixNano() - r.spec.T0
	return r.now() + int64(r.spec.Settle)
}

func (r *rep) beginWindow() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.res.Mallocs = ms.Mallocs
}

func (r *rep) endWindow(start, end, ops int64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.res.Mallocs = ms.Mallocs - r.res.Mallocs
	r.res.WindowNs = end - start
	r.res.Ops = ops
}

// runRep executes one repetition and returns the process exit code. Only the
// parent shard prints; a worker shard serves until the machine quiesces and
// exits silently.
func runRep(spec repSpec) int {
	wl, ok := workloads[spec.Workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", spec.Workload)
		return 2
	}
	r := &rep{spec: spec, epoch: time.Now(), lat: newSampler(), group: int64(wl.group)}
	if spec.Traced {
		r.spans = make([]span, 0, maxSpans)
	}

	var m *mpmd.Machine
	var be *netlive.Backend
	live := mpmd.LiveOptions{Watchdog: repDeadline(spec.Window)}
	if wl.shards == 1 {
		m = mpmd.NewMachineWithBackend(mpmd.SPConfig(), wl.nodes, mpmd.NewLiveBackend(wl.nodes, live))
		r.res.Transport = "inproc"
	} else {
		dir := ""
		if !mpmd.NetWorkerEnv() {
			var err error
			if dir, err = os.MkdirTemp(spec.Scratch, "rv-"); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			defer os.RemoveAll(dir)
		}
		t := time.Now()
		var err error
		be, err = netlive.New(wl.nodes, netlive.Options{
			NodesPerShard: wl.nodes / wl.shards, Live: live, Dir: dir, DisableShm: spec.NoShm})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: netlive:", err)
			return 1
		}
		r.res.SpawnNs = int64(time.Since(t))
		r.res.Transport = "socket"
		if be.ShmActive() {
			r.res.Transport = "shm"
		}
		m = mpmd.NewMachineWithBackend(mpmd.SPConfig(), wl.nodes, be)
	}
	if spec.Attach {
		mpmd.AttachTrace(m, mpmd.NewTraceLog(0))
	}
	rt := mpmd.NewRuntime(m)
	if err := wl.setup(r, rt); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: setup:", err)
		return 1
	}
	err := rt.Run()
	if err == nil {
		err = r.err
	}
	if be != nil && be.Shard() != 0 {
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: worker:", err)
			return 1
		}
		return 0
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: run:", err)
		return 1
	}
	// A silent socket fallback must never be reported as a ring number.
	if be != nil && !spec.NoShm && !be.ShmActive() {
		fmt.Fprintln(os.Stderr, "benchmark: shm rings inactive on a net workload; aborting")
		return 1
	}
	cs, err := m.ClusterStats()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: stats:", err)
		return 1
	}
	r.res.Acct, r.res.Metrics = cs.Acct, cs.Metrics
	if r.res.MaxRSSKB, err = peakRSSKB(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: peak RSS:", err)
		return 1
	}
	r.res.RMIHistP50Ns = cs.Shards[0].Metrics.Hist(metrics.HstRMILatency).P50()
	r.finish()
	if err := json.NewEncoder(os.Stdout).Encode(&r.res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// peakRSSKB is the larger of this process's own high-water RSS (VmHWM) and
// that of the workers it has reaped (netlive's Run waits for them). The
// driver's wait4 cannot give this number: at exec the kernel folds the
// high-water mark of the address space being replaced, which under vfork is
// the driver's, into the child's ru_maxrss, so a small program would read as
// large as the driver that started it.
func peakRSSKB() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	_, rest, ok := strings.Cut(string(b), "VmHWM:")
	if !ok {
		return 0, errors.New("no VmHWM in /proc/self/status")
	}
	var own int64
	if _, err := fmt.Sscanf(rest, "%d kB", &own); err != nil {
		return 0, fmt.Errorf("VmHWM: %w", err)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
		return 0, err
	}
	return max(own, ru.Maxrss), nil
}

// repDeadline is the hard bound on one repetition: the live watchdog inside
// the process and the driver's kill outside it both use it.
func repDeadline(window time.Duration) time.Duration { return window + 20*time.Second }

// finish hands over the window's latency samples and, when traced, turns
// its spans into the leg means and the trace file.
func (r *rep) finish() {
	r.res.Lat, r.res.Samples, r.res.MaxNs = r.lat.buf, r.lat.n, r.lat.max
	if !r.spec.Traced {
		return
	}
	if pairs := min(len(r.handler)/2, len(r.spans)); pairs > 0 {
		var l legMeans
		for i := 0; i < pairs; i++ {
			sp, in, out := r.spans[i], r.handler[2*i], r.handler[2*i+1]
			l.Request += in - float64(sp.s)
			l.Handler += out - in
			l.Reply += float64(sp.e) - out
			l.Op += float64(sp.e - sp.s)
		}
		k := float64(pairs)
		r.res.Legs = &legMeans{l.Request / k, l.Handler / k, l.Reply / k, l.Op / k}
	}
	if r.spec.TraceOut != "" {
		if err := os.MkdirAll(filepath.Dir(r.spec.TraceOut), 0o755); err == nil {
			err = writeTrace(r.spec.TraceOut, r)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark: trace file:", err)
			}
		}
	}
}
