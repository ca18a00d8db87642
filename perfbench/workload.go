package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"autodist"
)

// op is one generated invocation: a static entrypoint of the program's
// main class and its single int argument.
type op struct {
	entry string
	n     int64
}

// workload is one deployment shape and traffic mix. Every workload runs
// K=2 with the shared object pinned on rank 1, so each access to it
// from the starter on rank 0 crosses the fabric (or its local cache).
type workload struct {
	name string
	// source is the MJ program, relative to the repository root.
	source string
	// pinned is the class whose allocation sites are placed on rank 1;
	// every other object stays on rank 0.
	pinned string
	// config returns the deployment configuration for a run; the seed
	// only drives the chaos layer's fault pattern.
	config func(seed int64, clients int) autodist.Config
	// next draws a client's next invocation from its own seeded stream.
	next func(rng *rand.Rand) op
	// check validates one returned value.
	check func(o op, v int64, st *opState) error
	// final, when set, validates the deployment's state after the
	// measured window (run as one more invocation).
	final *finalCheck
}

// finalCheck invokes entry with no arguments and compares the result
// with the value want derives from the run's successful operations.
type finalCheck struct {
	entry string
	want  func(st *opState) int64
}

// opState is shared by the clients of one deployment: what the checks
// need to know about operations started so far.
type opState struct {
	depositsStarted atomic.Int64
	depositsOK      atomic.Int64
}

const (
	stormN   = 64
	mixN     = 16
	workN    = 2000
	chaosP   = 0.001
	nodes    = 2
	pinnedOn = 1
)

var workloads = map[string]*workload{
	"storm_tcp": {
		name:   "storm_tcp",
		source: "examples/rpcstorm/rpcstorm.mj",
		pinned: "Sink",
		config: func(_ int64, clients int) autodist.Config {
			return autodist.Config{TCP: true, MaxConcurrent: clients}
		},
		next:  func(*rand.Rand) op { return op{"storm", stormN} },
		check: checkMix,
	},
	"mix_lossy": {
		name:   "mix_lossy",
		source: "examples/rpcstorm/rpcstorm.mj",
		pinned: "Sink",
		config: func(seed int64, clients int) autodist.Config {
			return autodist.Config{
				MaxConcurrent:   clients,
				FailureRecovery: true,
				ChaosSeed:       seed,
				ChaosDrop:       chaosP,
				ChaosDup:        chaosP,
				ChaosReorder:    chaosP,
			}
		},
		next: func(rng *rand.Rand) op {
			return op{[]string{"sweep", "deposit", "storm"}[rng.Intn(3)], mixN}
		},
		check: checkMix,
		final: &finalCheck{
			entry: "total",
			want:  func(st *opState) int64 { return mixN * st.depositsOK.Load() },
		},
	},
	"compute_local": {
		name:   "compute_local",
		source: "examples/service/service.mj",
		pinned: "Table",
		config: func(_ int64, clients int) autodist.Config {
			return autodist.Config{MaxConcurrent: clients, Compile: true}
		},
		next: func(*rand.Rand) op { return op{"work", workN} },
		check: func(o op, v int64, _ *opState) error {
			// Main.t.label is 7, added once per iteration.
			if want := 7 * o.n; v != want {
				return fmt.Errorf("work(%d) = %d, want %d", o.n, v, want)
			}
			return nil
		},
	},
}

// checkMix validates the rpcstorm entrypoints: storm(n) sums ping(i) =
// i+1, sweep(n) sums the fields 1+2+3+4 per iteration, and deposit(n)
// returns the running total after its n-th add, which concurrent
// deposits can only have raised.
func checkMix(o op, v int64, st *opState) error {
	var want int64
	switch o.entry {
	case "storm":
		want = o.n * (o.n + 1) / 2
	case "sweep":
		want = 10 * o.n
	case "deposit":
		if hi := o.n * st.depositsStarted.Load(); v < o.n || v > hi {
			return fmt.Errorf("deposit(%d) = %d, want a total in [%d, %d]", o.n, v, o.n, hi)
		}
		return nil
	default:
		return fmt.Errorf("unexpected entrypoint %q", o.entry)
	}
	if v != want {
		return fmt.Errorf("%s(%d) = %d, want %d", o.entry, o.n, v, want)
	}
	return nil
}

// stageTimes are the durations of the set-up stages of one deployment.
type stageTimes struct {
	compile, analysis, partition, rewrite, deploy, main time.Duration
}

func (s stageTimes) total() time.Duration {
	return s.compile + s.analysis + s.partition + s.rewrite + s.deploy + s.main
}

// partitionOptions and rewriteOptions are what every workload passes
// to Partition and RewriteWith; the report records them verbatim.
var (
	partitionOptions = autodist.PartitionOptions{Seed: 1, Epsilon: 0.6}
	rewriteOptions   = autodist.RewriteOptions{}
)

// distribute runs the public pipeline CompileString → Analyze →
// Partition → RewriteWith with the workload's class pinned on rank 1,
// timing each stage into st.
func distribute(w *workload, src string, st *stageTimes) (*autodist.Distribution, error) {
	t := time.Now()
	prog, err := autodist.CompileString(src)
	if err != nil {
		return nil, err
	}
	st.compile = time.Since(t)

	t = time.Now()
	an, err := prog.Analyze()
	if err != nil {
		return nil, err
	}
	st.analysis = time.Since(t)

	t = time.Now()
	plan, err := an.Partition(nodes, partitionOptions)
	if err != nil {
		return nil, err
	}
	// Pin the way the service tests do: set the ODG vertex parts
	// before rewriting, everything on rank 0 except the shared object.
	pinned := false
	for _, v := range an.Result.ODG.Graph.Vertices() {
		v.Part = 0
	}
	for _, s := range an.Result.ODG.Sites {
		if s.Allocated == w.pinned {
			an.Result.ODG.Graph.Vertex(s.Node).Part = pinnedOn
			pinned = true
		}
	}
	if !pinned {
		return nil, fmt.Errorf("no allocation site of %s to pin", w.pinned)
	}
	st.partition = time.Since(t)

	t = time.Now()
	d, err := plan.RewriteWith(rewriteOptions)
	if err != nil {
		return nil, err
	}
	st.rewrite = time.Since(t)
	return d, nil
}

// readSource loads the workload's MJ program from the repository.
func readSource(root string, w *workload) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, w.source))
	if err != nil {
		return "", fmt.Errorf("read workload program: %w", err)
	}
	return string(b), nil
}
