package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime/pprof"
	"sync"
	"time"
)

// counters are the protocol counters the benchmark reads, either for
// one invocation (its per-thread delta) or for a whole deployment.
type counters struct {
	messages, fused, cacheHits       int64
	deopts, compiledEntries, tierUps int64
	retransmits, recoveries          int64
}

func (c counters) sub(o counters) counters {
	return counters{
		messages: c.messages - o.messages, fused: c.fused - o.fused, cacheHits: c.cacheHits - o.cacheHits,
		deopts: c.deopts - o.deopts, compiledEntries: c.compiledEntries - o.compiledEntries, tierUps: c.tierUps - o.tierUps,
		retransmits: c.retransmits - o.retransmits, recoveries: c.recoveries - o.recoveries,
	}
}

func (c counters) add(o counters) counters {
	return counters{
		messages: c.messages + o.messages, fused: c.fused + o.fused, cacheHits: c.cacheHits + o.cacheHits,
		deopts: c.deopts + o.deopts, compiledEntries: c.compiledEntries + o.compiledEntries, tierUps: c.tierUps + o.tierUps,
		retransmits: c.retransmits + o.retransmits, recoveries: c.recoveries + o.recoveries,
	}
}

// service is a deployed workload: the public autodist.Cluster for the
// measured run, or the same stack assembled with recording endpoints
// for the traced run.
type service interface {
	invoke(entry string, args ...int64) (any, counters, error)
	totals() counters
	shutdown(ctx context.Context) error
}

// Deadlines. An invocation, a deployment or a teardown that passes its
// deadline is recorded as failed and abandoned: its goroutine is left
// behind (Go cannot kill it), a goroutine dump is written beside the
// report, and the run moves on.
const (
	opDeadline       = 10 * time.Second
	setupDeadline    = 20 * time.Second
	teardownDeadline = 10 * time.Second
	// shutdownGrace is the context Shutdown receives: past it the
	// drain is skipped, and the teardown deadline covers the stop.
	shutdownGrace = 5 * time.Second
)

// failures collects what went wrong in one benchmark process, and
// where the goroutine dumps went.
type failures struct {
	mu       sync.Mutex
	attempts int64
	failed   int64
	wrong    int64
	notes    []string
	dumpPath string
	dumped   bool
}

func (f *failures) attempt(n int64) {
	f.mu.Lock()
	f.attempts += n
	f.mu.Unlock()
}

// fail records one failed operation; wrong marks it as a wrong value
// rather than an error or a missed deadline.
func (f *failures) fail(wrong bool, format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failed++
	if wrong {
		f.wrong++
	}
	if len(f.notes) < 20 {
		f.notes = append(f.notes, fmt.Sprintf(format, args...))
	}
}

// stuck records a missed deadline and writes every goroutine's stack
// beside the report (appending, so several stalls in one run all show).
func (f *failures) stuck(what string) {
	f.fail(false, "%s passed its deadline; goroutines dumped to %s", what, f.dumpPath)
	f.mu.Lock()
	defer f.mu.Unlock()
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if !f.dumped {
		flags |= os.O_TRUNC
	}
	out, err := os.OpenFile(f.dumpPath, flags, 0o644)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: goroutine dump:", err)
		return
	}
	defer out.Close()
	f.dumped = true
	fmt.Fprintf(out, "=== %s passed its deadline at %s\n", what, time.Now().Format(time.RFC3339Nano))
	_ = pprof.Lookup("goroutine").WriteTo(out, 2)
}

// within runs fn on its own goroutine and waits for it at most d. It
// reports false when the deadline passed; fn then keeps running
// unobserved and its result is dropped.
func within[T any](d time.Duration, fn func() T) (T, bool) {
	done := make(chan T, 1)
	go func() { done <- fn() }()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case v := <-done:
		return v, true
	case <-t.C:
		var zero T
		return zero, false
	}
}

// teardown shuts a deployment down under deadline d.
func teardown(s service, f *failures, what string, d time.Duration) {
	f.attempt(1)
	err, ok := within(d, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		return s.shutdown(ctx)
	})
	switch {
	case !ok:
		f.stuck("teardown of " + what)
	case err != nil:
		f.fail(false, "teardown of %s: %v", what, err)
	}
}

// expired returns an already-cancelled context: Shutdown with it skips
// the drain and stops the nodes at once.
func expired() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// opRecord is one completed invocation.
type opRecord struct {
	start, end time.Time
	delta      counters
}

// loopResult is what a closed loop measured.
type loopResult struct {
	ok      []time.Duration // latency of every correct op
	ops     int             // completed ops, correct or not
	records []opRecord      // every completed op, kept only when asked for
	elapsed time.Duration
}

// client is one closed-loop caller: it sends its next op only after
// the previous one returned.
type client struct {
	mu      sync.Mutex
	ok      []time.Duration
	ops     int
	keep    bool // keep a record of every op
	records []opRecord
	busy    bool // an op is in flight
	began   time.Time
	cur     op
}

// closedLoop drives s from clients goroutines for dur, each drawing
// ops from its own stream seeded from seed, and checks every returned
// value. Ops still running at the end are awaited up to the op
// deadline; a client stuck past it counts one failed op and is
// abandoned. With keep, every op's record is returned (the traced run
// needs them; the measured run keeps its memory to the latencies).
func closedLoop(s service, w *workload, st *opState, f *failures, clients int, seed int64, dur time.Duration, keep bool) loopResult {
	start := time.Now()
	stop := start.Add(dur)
	cs := make([]*client, clients)
	var wg sync.WaitGroup
	for i := range cs {
		c := &client{keep: keep}
		cs[i] = c
		rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				o := w.next(rng)
				c.mu.Lock()
				c.busy, c.began, c.cur = true, time.Now(), o
				c.mu.Unlock()
				runOp(s, w, st, f, c, o)
			}
		}()
	}
	_, finished := within(time.Until(stop)+opDeadline, func() struct{} { wg.Wait(); return struct{}{} })
	res := loopResult{elapsed: time.Since(start)}
	for _, c := range cs {
		c.mu.Lock()
		res.ok = append(res.ok, c.ok...)
		res.ops += c.ops
		res.records = append(res.records, c.records...)
		if c.busy && !finished {
			f.attempt(1)
			f.stuck(fmt.Sprintf("%s(%d), running since %s", c.cur.entry, c.cur.n, time.Since(c.began).Round(time.Millisecond)))
		}
		c.mu.Unlock()
	}
	return res
}

// runOp runs one invocation and records its outcome on c.
func runOp(s service, w *workload, st *opState, f *failures, c *client, o op) {
	f.attempt(1)
	deposit := o.entry == "deposit"
	if deposit {
		st.depositsStarted.Add(1)
	}
	t0 := time.Now()
	val, delta, err := s.invoke(o.entry, o.n)
	t1 := time.Now()
	lat := t1.Sub(t0)
	v, isInt := val.(int64)
	good := false
	switch {
	case err != nil:
		f.fail(false, "%s(%d): %v", o.entry, o.n, err)
	case lat > opDeadline:
		f.fail(false, "%s(%d) took %s, past the op deadline", o.entry, o.n, lat)
	case !isInt:
		f.fail(true, "%s(%d) returned %T, want int", o.entry, o.n, val)
	default:
		if cerr := w.check(o, v, st); cerr != nil {
			f.fail(true, "%v", cerr)
		} else {
			good = true
		}
	}
	if deposit && err == nil {
		// The deposit ran to completion, so its adds are in the total
		// whether or not its returned value checked out.
		st.depositsOK.Add(1)
	}
	c.mu.Lock()
	if good {
		c.ok = append(c.ok, lat)
	}
	c.ops++
	if c.keep {
		c.records = append(c.records, opRecord{start: t0, end: t1, delta: delta})
	}
	c.busy = false
	c.mu.Unlock()
}

// runFinal runs the workload's end-of-run state check, if it has one.
func runFinal(s service, w *workload, st *opState, f *failures) {
	if w.final == nil {
		return
	}
	f.attempt(1)
	type out struct {
		v   any
		err error
	}
	r, ok := within(opDeadline, func() out {
		v, _, err := s.invoke(w.final.entry)
		return out{v, err}
	})
	switch want := w.final.want(st); {
	case !ok:
		f.stuck(w.final.entry + "()")
	case r.err != nil:
		f.fail(false, "%s(): %v", w.final.entry, r.err)
	case r.v != want:
		f.fail(true, "%s() = %d, want %d (exactly-once check)", w.final.entry, r.v, want)
	}
}
