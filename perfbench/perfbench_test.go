package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"autodist/internal/transport"
)

// fakeEndpoint implements Endpoint and every optional capability the
// transport package probes for, recording the calls that reach it.
type fakeEndpoint struct {
	rank     int
	copies   bool
	causal   bool
	flushErr error
	flushes  int
	retired  []int
	grown    *fakeEndpoint
}

func (e *fakeEndpoint) Rank() int                    { return e.rank }
func (e *fakeEndpoint) Size() int                    { return 2 }
func (e *fakeEndpoint) Send(transport.Message) error { return nil }
func (e *fakeEndpoint) Recv() (transport.Message, error) {
	return transport.Message{}, transport.ErrClosed
}
func (e *fakeEndpoint) Close() error            { return nil }
func (e *fakeEndpoint) SendCopiesPayload() bool { return e.copies }
func (e *fakeEndpoint) CausalDelivery() bool    { return e.causal }
func (e *fakeEndpoint) Flush() error            { e.flushes++; return e.flushErr }
func (e *fakeEndpoint) RetireRank(rank int)     { e.retired = append(e.retired, rank) }
func (e *fakeEndpoint) FaultCounters() transport.FaultStats {
	return transport.FaultStats{Retransmits: 3, Recovered: 5, PeersDown: 1}
}
func (e *fakeEndpoint) GrowEndpoint() (transport.Endpoint, error) {
	e.grown = &fakeEndpoint{rank: 2}
	return e.grown, nil
}

// bareEndpoint has none of the optional capabilities.
type bareEndpoint struct{}

func (bareEndpoint) Rank() int                    { return 0 }
func (bareEndpoint) Size() int                    { return 1 }
func (bareEndpoint) Send(transport.Message) error { return nil }
func (bareEndpoint) Recv() (transport.Message, error) {
	return transport.Message{}, transport.ErrClosed
}
func (bareEndpoint) Close() error { return nil }

// TestRecorderForwardsCapabilities checks that a recording endpoint is
// transparent to every capability probe in the transport package:
// FaultCounters, SendCopiesPayload, Flush, GrowEndpoint, RetireRank and
// CausalDelivery.
func TestRecorderForwardsCapabilities(t *testing.T) {
	for _, l := range []layer{upper, lower} {
		for _, flag := range []bool{true, false} {
			inner := &fakeEndpoint{rank: 1, copies: flag, causal: !flag, flushErr: errors.New("flush failed")}
			ep := newRecorder().wrap(inner, l)

			if f, ok := transport.Faults(ep); !ok || f != inner.FaultCounters() {
				t.Errorf("Faults = %+v, %v; want the inner counters", f, ok)
			}
			if got := transport.CopiesPayload(ep); got != flag {
				t.Errorf("CopiesPayload = %v, want %v", got, flag)
			}
			if got := transport.Causal(ep); got != !flag {
				t.Errorf("Causal = %v, want %v", got, !flag)
			}
			if err := transport.Flush(ep); err != inner.flushErr || inner.flushes != 1 {
				t.Errorf("Flush = %v after %d inner flushes; want the inner error after 1", err, inner.flushes)
			}
			transport.RetirePeer(ep, 3)
			if len(inner.retired) != 1 || inner.retired[0] != 3 {
				t.Errorf("RetirePeer reached the inner endpoint as %v, want [3]", inner.retired)
			}
			g, err := transport.Grow(ep)
			if err != nil {
				t.Fatalf("Grow: %v", err)
			}
			if r, ok := g.(*recEndpoint); !ok || r.inner != inner.grown || r.layer != l {
				t.Errorf("Grow returned %T, want a recorder of the same layer around the grown endpoint", g)
			}
		}
	}

	ep := newRecorder().wrap(bareEndpoint{}, upper)
	if transport.CopiesPayload(ep) || transport.Causal(ep) {
		t.Error("a bare inner endpoint must not gain CopiesPayload or Causal")
	}
	if _, err := transport.Grow(ep); err == nil {
		t.Error("Grow over a fabric that cannot grow must fail")
	}
	if f, _ := transport.Faults(ep); f != (transport.FaultStats{}) {
		t.Errorf("Faults over a bare endpoint = %+v, want zero", f)
	}
}

// TestRecorderOverRealStacks checks the probes over the fabrics the
// traced run wraps.
func TestRecorderOverRealStacks(t *testing.T) {
	eps := transport.NewInProc(2)
	rec := newRecorder()
	in := rec.wrap(eps[0], lower)
	if !transport.Causal(in) || transport.CopiesPayload(in) {
		t.Error("in-process fabric: want causal delivery and a non-copying Send through the recorder")
	}
	rel := rec.wrap(transport.NewReliable(rec.wrap(eps[1], lower), transport.ReliableOptions{}), upper)
	defer rel.Close()
	if transport.Causal(rel) || !transport.CopiesPayload(rel) {
		t.Error("reliable stack: want no causal delivery and a copying Send through the recorder")
	}
	if _, ok := transport.Faults(rel); !ok {
		t.Error("reliable stack: fault counters not reachable through the recorder")
	}
}

// runWindow deploys w, measures a short window and tears it down.
func runWindow(t *testing.T, w *workload, traced bool) window {
	t.Helper()
	src, err := readSource("..", w)
	if err != nil {
		t.Fatal(err)
	}
	var st stageTimes
	f := &failures{dumpPath: filepath.Join(t.TempDir(), "goroutines.txt")}
	svc, rec, err := deploy(w, src, w.config(1, 2), traced, &st)
	if err != nil {
		t.Fatal(err)
	}
	win := measure(svc, rec, w, &opState{}, f, 2, 1, 300*time.Millisecond)
	teardown(svc, f, "test deployment", teardownDeadline)
	if f.failed != 0 {
		t.Fatalf("%s traced=%v: %d failed ops: %v", w.name, traced, f.failed, f.notes)
	}
	if win.loop.ops == 0 {
		t.Fatalf("%s traced=%v: no ops completed", w.name, traced)
	}
	return win
}

// TestTracedMatchesUntraced checks that the recorders change nothing
// the protocol counts: the traced run's frames per op equal the
// untraced run's, and so do the per-op protocol counters.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, name := range []string{"storm_tcp", "compute_local"} {
		w := workloads[name]
		plain, traced := runWindow(t, w, false), runWindow(t, w, true)
		perOpCounters := func(win window) counters {
			d := win.delta
			n := int64(win.loop.ops)
			return counters{
				messages: d.messages / n, fused: d.fused / n, cacheHits: d.cacheHits / n,
				deopts: d.deopts / n, compiledEntries: d.compiledEntries / n, tierUps: d.tierUps / n,
				retransmits: d.retransmits / n, recoveries: d.recoveries / n,
			}
		}
		p, tr := perOpCounters(plain), perOpCounters(traced)
		if p != tr {
			t.Errorf("%s: per-op counters untraced %+v, traced %+v", name, p, tr)
		}
		if got, want := perOp(traced.upperSends, traced.loop.ops), perOp(plain.delta.messages, plain.loop.ops); got != want {
			t.Errorf("%s: traced transport.frames_per_op = %v, untraced frames per op = %v", name, got, want)
		}
	}
}

// TestRunPrintsDeclaredMetrics runs every workload briefly, untraced
// and traced, and checks the result carries exactly the metrics
// BENCHMARK.json declares, with their units.
func TestRunPrintsDeclaredMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	for _, wd := range decl.Workloads {
		w, ok := workloads[wd.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", wd.Name)
		}
		for _, traced := range []bool{false, true} {
			want := decl.EndToEnd
			if traced {
				want = decl.PerLayer
			}
			res, err := run(w, "..", t.TempDir(), 1, 200*time.Millisecond, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			var got, exp []string
			for n, m := range res.Metrics {
				got = append(got, n+" "+m.Unit)
			}
			for _, m := range want {
				exp = append(exp, m.Name+" "+m.Unit)
			}
			sort.Strings(got)
			sort.Strings(exp)
			if strings.Join(got, ",") != strings.Join(exp, ",") {
				t.Errorf("%s traced=%v: metrics\n got  %v\n want %v", w.name, traced, got, exp)
			}
		}
	}
}

// hungService never finishes shutting down.
type hungService struct{ block chan struct{} }

func (hungService) invoke(string, ...int64) (any, counters, error) { return int64(0), counters{}, nil }
func (hungService) totals() counters                               { return counters{} }
func (s hungService) shutdown(context.Context) error               { <-s.block; return nil }

// TestTeardownDeadline checks a teardown that hangs is reported as one
// failed operation with a goroutine dump, instead of blocking the run.
func TestTeardownDeadline(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "goroutines.txt")
	f := &failures{dumpPath: dump}
	s := hungService{block: make(chan struct{})}
	defer close(s.block)
	start := time.Now()
	teardown(s, f, "hung deployment", 50*time.Millisecond)
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("teardown returned after %s", d)
	}
	if f.attempts != 1 || f.failed != 1 || f.wrong != 0 {
		t.Errorf("attempts=%d failed=%d wrong=%d, want 1 1 0", f.attempts, f.failed, f.wrong)
	}
	b, err := os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "hungService") {
		t.Error("goroutine dump does not show the hung shutdown")
	}
}
