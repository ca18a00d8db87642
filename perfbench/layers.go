package main

import (
	"fmt"
	goruntime "runtime"
	"slices"
	"sort"
	"time"

	"autodist/internal/wire"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks (v is sorted in place); 0 for an empty sample.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	i := int(pos)
	if i+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[i] + (pos-float64(i))*(v[i+1]-v[i])
}

// nsQuantile is quantile over nanosecond durations, leaving d unsorted.
func nsQuantile[T int64 | time.Duration](d []T, q float64) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x)
	}
	return quantile(v, q)
}

// perOp divides a count by the number of ops, 0 when there were none.
func perOp(n int64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(n) / float64(ops)
}

// window is what the measured closed loops of a run captured, summed
// over the deployments measured.
type window struct {
	loop               loopResult
	delta              counters // deployment counters over the loops
	mallocs, gcPauseNs uint64

	// Traced runs only: recorder counts over the loops, the client self
	// time of every attributed op, and each deployment's span samples.
	upperSends, lowerSends, roundTrips int64
	self                               []float64
	send, deliver, serve, relSelf      []int64
}

// add folds another deployment's window into w.
func (w *window) add(o window) {
	w.loop.ok = append(w.loop.ok, o.loop.ok...)
	w.loop.ops += o.loop.ops
	w.loop.records = append(w.loop.records, o.loop.records...)
	w.loop.elapsed += o.loop.elapsed
	w.delta = w.delta.add(o.delta)
	w.mallocs += o.mallocs
	w.gcPauseNs += o.gcPauseNs
	w.upperSends += o.upperSends
	w.lowerSends += o.lowerSends
	w.roundTrips += o.roundTrips
	w.self = append(w.self, o.self...)
	w.send = append(w.send, o.send...)
	w.deliver = append(w.deliver, o.deliver...)
	w.serve = append(w.serve, o.serve...)
	w.relSelf = append(w.relSelf, o.relSelf...)
}

// spans copies the recorder's span samples and attributes the window's
// ops to their logical threads, for the per-layer metrics.
func (w *window) spans(rec *recorder) {
	w.self = clientSelf(rec, w.loop.records)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	w.send = slices.Clone(rec.send.v)
	w.deliver = slices.Clone(rec.deliver.v)
	w.serve = slices.Clone(rec.serve.v)
	w.relSelf = slices.Clone(rec.relSelf.v)
}

// layerMetrics derives the per-layer numbers of a traced run. Span
// percentiles cover every frame of the measured deployments — their
// main(), warm-up and window — so a layer the ops never touch still
// reports the cost of the frames it did carry; per-op counts cover the
// windows only.
func layerMetrics(win window, setups []stageTimes) map[string]metric {
	m := map[string]metric{}
	ms := func(name string, pick func(stageTimes) time.Duration) {
		v := make([]float64, len(setups))
		for i, s := range setups {
			v[i] = float64(pick(s)) / 1e6
		}
		m[name] = metric{quantile(v, 0.5), "ms"}
	}
	ms("compile.ms", func(s stageTimes) time.Duration { return s.compile })
	ms("analysis.ms", func(s stageTimes) time.Duration { return s.analysis })
	ms("partition.ms", func(s stageTimes) time.Duration { return s.partition })
	ms("rewrite.ms", func(s stageTimes) time.Duration { return s.rewrite })
	ms("deploy.ms", func(s stageTimes) time.Duration { return s.deploy })
	ms("main.ms", func(s stageTimes) time.Duration { return s.main })

	ops := win.loop.ops
	var perOpDelta counters
	walls := make([]float64, 0, ops)
	for _, r := range win.loop.records {
		perOpDelta = perOpDelta.add(r.delta)
		walls = append(walls, float64(r.end.Sub(r.start)))
	}
	total := win.delta
	send, deliver, serve, relSelf := win.send, win.deliver, win.serve, win.relSelf
	us := func(name string, ns []int64, q float64) {
		m[name] = metric{nsQuantile(ns, q) / 1e3, "us"}
	}

	m["transport.frames_per_op"] = metric{perOp(win.upperSends, ops), "count"}
	us("transport.send_us.p50", send, 0.5)
	us("transport.send_us.p99", send, 0.99)
	us("transport.deliver_us.p50", deliver, 0.5)
	us("transport.deliver_us.p99", deliver, 0.99)

	us("runtime.serve_us.p50", serve, 0.5)
	us("runtime.serve_us.p99", serve, 0.99)
	m["runtime.fused_batches_per_op"] = metric{perOp(perOpDelta.fused, ops), "count"}
	m["runtime.messages_per_op"] = metric{perOp(perOpDelta.messages, ops), "count"}

	us("transport.reliable_self_us.p50", relSelf, 0.5)
	m["transport.fabric_frames_per_op"] = metric{perOp(win.lowerSends, ops), "count"}
	useful := 0.0
	if win.lowerSends > 0 {
		useful = float64(win.upperSends) / float64(win.lowerSends)
	}
	m["transport.useful_ratio"] = metric{useful, "ratio"}
	m["transport.retransmits_per_op"] = metric{perOp(total.retransmits, ops), "count"}
	m["transport.recoveries_per_op"] = metric{perOp(total.recoveries, ops), "count"}

	self := win.self
	selfP50 := quantile(self, 0.5)
	m["runtime.client_self_us.p50"] = metric{selfP50 / 1e3, "us"}
	m["runtime.cache_hits_per_op"] = metric{perOp(perOpDelta.cacheHits, ops), "count"}
	m["runtime.deopts_per_op"] = metric{perOp(perOpDelta.deopts, ops), "count"}
	m["runtime.compiled_entries_per_op"] = metric{perOp(perOpDelta.compiledEntries, ops), "count"}

	m["go.allocs_per_op"] = metric{perOp(int64(win.mallocs), ops), "count"}
	m["go.gc_pause_ms_per_s"] = metric{float64(win.gcPauseNs) / 1e6 / win.loop.elapsed.Seconds(), "ms/s"}

	// The blocking path of an op: the client's own time plus, per round
	// trip, the request's delivery, the owner's serve time and the
	// response's delivery. Built from medians, it shows how much of the
	// median op the typical layer costs explain.
	wallP50 := quantile(walls, 0.5)
	covered := selfP50 + perOp(win.roundTrips, ops)*(2*nsQuantile(deliver, 0.5)+nsQuantile(serve, 0.5))
	share := 0.0
	if wallP50 > 0 {
		share = covered / wallP50
	}
	m["blocking.covered_share"] = metric{share, "ratio"}
	m["blocking.unaccounted_ms"] = metric{(wallP50 - covered) / 1e6, "ms"}
	m["trace.latency_p50_ms"] = metric{wallP50 / 1e6, "ms"}
	m["trace.attributed_share"] = metric{perOp(int64(len(self)), ops), "ratio"}
	return m
}

// clientSelf returns, per op, the op's wall time minus the starter's
// blocking round trips for it (in ns). An op that sent nothing spent
// all of its time on the client. An op that did send is matched to its
// logical thread through the round trips that thread made inside the
// op's interval; ops matching no thread, or several (a concurrent op
// nested inside it), are left out.
func clientSelf(rec *recorder, records []opRecord) []float64 {
	rec.mu.Lock()
	var tids []tidWait
	for _, t := range rec.tids {
		if t.tid != 0 && t.last > 0 {
			tids = append(tids, t)
		}
	}
	base := rec.base
	rec.mu.Unlock()
	sort.Slice(tids, func(i, j int) bool { return tids[i].first < tids[j].first })

	out := make([]float64, 0, len(records))
	for _, r := range records {
		wall := float64(r.end.Sub(r.start))
		if r.delta.messages == 0 {
			out = append(out, wall)
			continue
		}
		start, end := int64(r.start.Sub(base)), int64(r.end.Sub(base))
		i := sort.Search(len(tids), func(i int) bool { return tids[i].first >= start })
		var match *tidWait
		n := 0
		for ; i < len(tids) && tids[i].first <= end; i++ {
			if tids[i].last <= end {
				match = &tids[i]
				n++
			}
		}
		if n == 1 {
			out = append(out, wall-float64(match.wait))
		}
	}
	return out
}

// replayWire encodes and decodes the captured frame mix with the wire
// codec and returns ns per frame for each direction, encoded bytes per
// frame and heap allocations per frame (encode plus decode). Each
// direction reports the median of several timed rounds.
func replayWire(rec *recorder) (encNs, decNs, bytesPer, allocsPer float64, err error) {
	rec.mu.Lock()
	frames := make([]wire.Frame, len(rec.capture))
	for i, msg := range rec.capture {
		frames[i] = wire.Frame{From: msg.From, To: msg.To, Tag: msg.Tag, TID: msg.TID, Kind: msg.Kind,
			Seq: msg.Seq, Ack: msg.Ack, Dedup: msg.Dedup, View: msg.View, Time: msg.Time, Payload: msg.Payload}
	}
	rec.mu.Unlock()
	if len(frames) == 0 {
		return 0, 0, 0, 0, nil
	}
	var buf []byte
	encode := func() {
		buf = buf[:0]
		for i := range frames {
			buf = wire.AppendFrame(buf, &frames[i])
		}
	}
	decode := func() error {
		rest := buf
		for len(rest) > 0 {
			var err error
			if _, rest, err = wire.DecodeFrameBuf(rest); err != nil {
				return fmt.Errorf("captured frame does not decode: %w", err)
			}
		}
		return nil
	}
	encode()
	if err := decode(); err != nil {
		return 0, 0, 0, 0, err
	}
	bytesPer = float64(len(buf)) / float64(len(frames))

	const rounds, minRound = 15, 2 * time.Millisecond
	timed := func(fn func()) float64 {
		per := make([]float64, rounds)
		for r := range per {
			n, t := 0, time.Now()
			for time.Since(t) < minRound {
				fn()
				n++
			}
			per[r] = float64(time.Since(t)) / float64(n*len(frames))
		}
		return quantile(per, 0.5)
	}
	encNs, decNs = timed(encode), timed(func() { _ = decode() })

	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	const passes = 20
	for range passes {
		encode()
		_ = decode()
	}
	goruntime.ReadMemStats(&after)
	allocsPer = float64(after.Mallocs-before.Mallocs) / float64(passes*len(frames))
	return encNs, decNs, bytesPer, allocsPer, nil
}
