package mpmd

import (
	"os"

	"repro/internal/machine"
	"repro/internal/transport/live"
	"repro/internal/transport/netlive"
)

// NetOptions tune the sharded multi-process backend (see NewNetMachine).
// The zero value runs every node in this process, on the live backend. With
// more than one shard the parent process re-execs its own binary once per
// worker shard; the parent decides how the shards' links move packets, and
// each worker follows it.
type NetOptions struct {
	// NodesPerShard is how many consecutive nodes share one OS process.
	// Zero (or >= n) keeps everything in this process.
	NodesPerShard int
	// Live tunes in-shard execution (the run watchdog).
	Live LiveOptions
	// ChildArgs overrides the re-exec argument vector (default: this
	// process's own arguments — the SPMD launch model).
	ChildArgs []string
}

// NetInfo describes this process's place in a sharded machine.
type NetInfo struct {
	// Shards is the number of OS processes the machine spans.
	Shards int
	// Shard is this process's index; 0 is the parent.
	Shard int
	// Worker reports whether this process is a peer shard the parent
	// re-exec'd rather than the parent.
	Worker bool
	// LocalNodes are the machine nodes executing in this process.
	LocalNodes []int
}

// ExitIfWorker terminates a worker process once its shard's Run has
// completed, so the code after Run — report printing, result collection —
// executes only in the parent. err (normally the value returned by Run)
// selects the exit status. No-op in the parent.
func (i *NetInfo) ExitIfWorker(err error) {
	if !i.Worker {
		return
	}
	if err != nil {
		os.Exit(1)
	}
	os.Exit(0)
}

// NewNetMachine builds a multicomputer whose n nodes are sharded across OS
// processes — the live backend's semantics per shard, real serialized
// Active-Messages frames between shards, on shared-memory rings the parent
// makes (a socket per shard pair carries the control frames). One shard is
// this process alone, on the live backend: NetInfo reads shard 0 of 1.
//
// Every process must execute the identical program up to Run (register the
// same classes, create the same objects, install the same node programs):
// the parent re-execs its own binary for the worker shards, and each process
// runs only its local nodes' programs while serving remote invocations.
// After Run, call NetInfo.ExitIfWorker so workers do not fall through into
// parent-only reporting code.
func NewNetMachine(cfg Config, n int, o NetOptions) (*Machine, *NetInfo, error) {
	if n > 0 && (o.NodesPerShard <= 0 || o.NodesPerShard >= n) && !NetWorkerEnv() {
		// A parent of one shard spawns no worker; a worker that builds one
		// shard has diverged from its parent, and netlive.New refuses it.
		info := &NetInfo{Shards: 1, LocalNodes: make([]int, n)}
		for i := range info.LocalNodes {
			info.LocalNodes[i] = i
		}
		return machine.NewWithBackend(cfg, n, live.New(n, o.Live)), info, nil
	}
	be, err := netlive.New(n, netlive.Options{
		NodesPerShard: o.NodesPerShard,
		Live:          o.Live,
		ChildArgs:     o.ChildArgs,
	})
	if err != nil {
		return nil, nil, err
	}
	info := &NetInfo{
		Shards:     be.NumShards(),
		Shard:      be.Shard(),
		Worker:     be.Shard() != 0,
		LocalNodes: be.LocalNodes(),
	}
	return machine.NewWithBackend(cfg, n, be), info, nil
}

// NetWorkerEnv reports whether this process is a netlive worker the parent
// re-exec'd (the re-exec environment is set) — useful before any machine
// exists.
func NetWorkerEnv() bool { return os.Getenv(netlive.EnvShard) != "" }
