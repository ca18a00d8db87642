// Command perfbench is the repository benchmark. It deploys one
// workload through the public autodist pipeline (CompileString →
// Analyze → Partition → RewriteWith → Deploy → Invoke), drives it with
// a closed loop of one client per CPU, checks every returned value,
// and prints the end-to-end metrics — or, with -trace 1, the per-layer
// metrics of a traced run. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root; see README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"time"

	"autodist"
)

// setupReps is how many times each run deploys the workload; setup_s
// and the set-up spans are the median over them. The last
// measuredDeployments of them share the measured window equally: how
// fast a deployment runs varies from one to the next (the TCP
// connections, where its goroutines settle), so pooling several steadies
// the figures more than one long window would.
const (
	setupReps           = 5
	measuredDeployments = 3
)

// warmup runs before the measured window, so the write-once caches,
// the JIT and the connections are in steady state when timing starts.
const warmup = time.Second

func main() {
	name := flag.String("workload", "", "workload: storm_tcp, mix_lossy or compute_local")
	seed := flag.Int64("seed", 1, "seed for the op order and the chaos fault pattern")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	root := flag.String("root", ".", "repository root holding the workload programs")
	out := flag.String("out", ".bench_build/perfbench", "directory for the report and any goroutine dump")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(w, *root, *out, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the contract line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is written beside the result: what ran, where, and how it went.
type report struct {
	Stamp            stamp                     `json:"stamp"`
	Workload         string                    `json:"workload"`
	Seed             int64                     `json:"seed"`
	Traced           bool                      `json:"traced"`
	Clients          int                       `json:"clients"`
	Config           autodist.Config           `json:"config"`
	PartitionOptions autodist.PartitionOptions `json:"partition_options"`
	RewriteOptions   autodist.RewriteOptions   `json:"rewrite_options"`
	LatencySamples   int                       `json:"latency_samples"`
	FramesPerOp      float64                   `json:"frames_per_op"`
	PerOp            map[string]float64        `json:"per_op_counters"`
	Result           result                    `json:"result"`
	Failures         []string                  `json:"failures,omitempty"`
}

func run(w *workload, root, outDir string, seed int64, dur time.Duration, traced bool) (*result, error) {
	src, err := readSource(root, w)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", w.name, seed, b2i(traced)))
	f := &failures{dumpPath: base + ".goroutines.txt"}
	clients := goruntime.NumCPU()
	cfg := w.config(seed, clients)
	rep := &report{
		Stamp: hostStamp(root), Workload: w.name, Seed: seed, Traced: traced, Clients: clients,
		Config: cfg, PartitionOptions: partitionOptions, RewriteOptions: rewriteOptions,
	}
	goroutinesBefore := goruntime.NumGoroutine()

	// Deploy setupReps times; the last measuredDeployments are measured
	// before their teardown.
	var setups []stageTimes
	var win window
	var lastRec *recorder
	for i := range setupReps {
		// Start every set-up from a collected heap, so a collection
		// left over from the previous one does not land in its time.
		goruntime.GC()
		f.attempt(1)
		type out struct {
			st  stageTimes
			svc service
			rec *recorder
			err error
		}
		o, ok := within(setupDeadline, func() out {
			var o out
			o.svc, o.rec, o.err = deploy(w, src, cfg, traced, &o.st)
			return o
		})
		if !ok {
			f.stuck(fmt.Sprintf("set-up %d", i+1))
			return nil, finish(rep, f, base, fmt.Errorf("set-up %d passed its deadline", i+1))
		}
		if o.err != nil {
			f.fail(false, "set-up %d: %v", i+1, o.err)
			return nil, finish(rep, f, base, o.err)
		}
		setups = append(setups, o.st)
		if i >= setupReps-measuredDeployments {
			st := &opState{}
			win.add(measure(o.svc, o.rec, w, st, f, clients, seed*setupReps+int64(i), dur/measuredDeployments))
			runFinal(o.svc, w, st, f)
			lastRec = o.rec
		}
		teardown(o.svc, f, fmt.Sprintf("deployment %d", i+1), teardownDeadline)
	}

	ops := win.loop.ops
	delta := win.delta
	rep.LatencySamples = len(win.loop.ok)
	rep.FramesPerOp = perOp(delta.messages, ops)
	rep.PerOp = map[string]float64{
		"messages": perOp(delta.messages, ops), "fused_batches": perOp(delta.fused, ops),
		"cache_hits": perOp(delta.cacheHits, ops), "deopts": perOp(delta.deopts, ops),
		"compiled_entries": perOp(delta.compiledEntries, ops), "tier_ups": perOp(delta.tierUps, ops),
		"retransmits": perOp(delta.retransmits, ops), "recoveries": perOp(delta.recoveries, ops),
	}

	var metrics map[string]metric
	if traced {
		metrics = layerMetrics(win, setups)
		enc, dec, bytesPer, allocs, err := replayWire(lastRec)
		if err != nil {
			f.fail(true, "wire replay: %v", err)
		}
		metrics["wire.encode_ns_per_frame"] = metric{enc, "ns"}
		metrics["wire.decode_ns_per_frame"] = metric{dec, "ns"}
		metrics["wire.bytes_per_frame"] = metric{bytesPer, "bytes"}
		metrics["wire.allocs_per_frame"] = metric{allocs, "count"}
		metrics["go.goroutines_after_teardown"] = metric{float64(settledGoroutines(goroutinesBefore) - goroutinesBefore), "count"}
	} else {
		totals := make([]float64, len(setups))
		for i, s := range setups {
			totals[i] = s.total().Seconds()
		}
		lat := win.loop.ok
		metrics = map[string]metric{
			"setup_s":        {quantile(totals, 0.5), "s"},
			"ops_per_s":      {float64(len(lat)) / win.loop.elapsed.Seconds(), "1/s"},
			"latency_p50_ms": {nsQuantile(lat, 0.5) / 1e6, "ms"},
			"latency_p99_ms": {nsQuantile(lat, 0.99) / 1e6, "ms"},
			"peak_rss_mb":    {peakRSSMB(), "MB"},
		}
	}

	f.mu.Lock()
	res := &result{
		Correct:   f.wrong == 0,
		Attempted: f.attempts,
		Failed:    f.failed,
		Metrics:   metrics,
	}
	f.mu.Unlock()
	rep.Result = *res
	printHuman(rep)
	return res, finish(rep, f, base, nil)
}

// measure warms the deployment up, then runs the measured loop for
// dur and captures the counters around it. The op streams are seeded
// from stream.
func measure(svc service, rec *recorder, w *workload, st *opState, f *failures, clients int, stream int64, dur time.Duration) window {
	closedLoop(svc, w, st, f, clients, 2*stream, warmup, false)
	var win window
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	mallocs0, pause0 := ms.Mallocs, ms.PauseTotalNs
	before := svc.totals()
	var up0, low0, rt0 int64
	if rec != nil {
		up0, low0, rt0 = rec.snapshot()
	}
	win.loop = closedLoop(svc, w, st, f, clients, 2*stream+1, dur, rec != nil)
	win.delta = svc.totals().sub(before)
	goruntime.ReadMemStats(&ms)
	win.mallocs, win.gcPauseNs = ms.Mallocs-mallocs0, ms.PauseTotalNs-pause0
	if rec != nil {
		up, low, rt := rec.snapshot()
		win.upperSends, win.lowerSends, win.roundTrips = up-up0, low-low0, rt-rt0
		win.spans(rec)
	}
	return win
}

// deploy sets the workload up once: the public pipeline through
// Deploy (or, traced, the same stack assembled with recorders), then
// Invoke("main") to provision the shared object.
func deploy(w *workload, src string, cfg autodist.Config, traced bool, st *stageTimes) (service, *recorder, error) {
	d, err := distribute(w, src, st)
	if err != nil {
		return nil, nil, err
	}
	t := time.Now()
	var svc service
	var rec *recorder
	if traced {
		rec = newRecorder()
		rt, err := assemble(d, cfg, rec)
		if err != nil {
			return nil, nil, err
		}
		svc = &tracedService{rt: rt}
	} else {
		c, err := d.Deploy(cfg)
		if err != nil {
			return nil, nil, err
		}
		svc = publicService{c}
	}
	st.deploy = time.Since(t)
	t = time.Now()
	if _, _, err := svc.invoke("main"); err != nil {
		// Stop the nodes; a failure to stop shows in the deadline
		// of the caller, which is waiting on this set-up.
		_, _ = within(teardownDeadline, func() error { return svc.shutdown(expired()) })
		return nil, nil, fmt.Errorf("main(): %w", err)
	}
	st.main = time.Since(t)
	return svc, rec, nil
}

// settledGoroutines waits up to two seconds for the goroutine count to
// fall back to want (connection readers exit asynchronously after a
// teardown) and returns the count it settled at.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := goruntime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// finish writes the report, echoes the failures to standard error and
// passes err through.
func finish(rep *report, f *failures, base string, err error) error {
	f.mu.Lock()
	rep.Failures = append([]string(nil), f.notes...)
	f.mu.Unlock()
	for _, n := range rep.Failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", n)
	}
	b, merr := json.MarshalIndent(rep, "", "  ")
	if merr == nil {
		merr = os.WriteFile(base+".json", b, 0o644)
	}
	if merr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: report:", merr)
	}
	return err
}

// printHuman prints the stamp and every metric by name with its unit.
func printHuman(rep *report) {
	s := rep.Stamp
	fmt.Printf("host: commit=%s source=%.12s go=%s GOMAXPROCS=%d nproc=%d cpu=%q\n",
		s.Commit, s.SourceSHA256, s.GoVersion, s.GOMAXPROCS, s.NProc, s.CPUModel)
	cfg, _ := json.Marshal(rep.Config)
	ropts, _ := json.Marshal(rep.RewriteOptions)
	fmt.Printf("workload: %s seed=%d traced=%v clients=%d config=%s rewrite=%s\n",
		rep.Workload, rep.Seed, rep.Traced, rep.Clients, cfg, ropts)
	fmt.Printf("ops: attempted=%d failed=%d latency_samples=%d frames_per_op=%.4f\n",
		rep.Result.Attempted, rep.Result.Failed, rep.LatencySamples, rep.FramesPerOp)
	names := make([]string, 0, len(rep.Result.Metrics))
	for n := range rep.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Result.Metrics[n]
		fmt.Printf("metric %s = %.6g %s\n", n, m.Value, m.Unit)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
