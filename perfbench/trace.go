package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"autodist"
	"autodist/internal/bytecode"
	"autodist/internal/runtime"
	"autodist/internal/transport"
	"autodist/internal/vm"
)

// The traced run assembles the stack Deploy builds — the same fabric,
// chaos and reliability constructors with the same options — and puts
// recording endpoints into it:
//
//	runtime → rec(upper) → [reliable] → rec(lower) → [chaos] → fabric
//
// The upper recorder sees exactly the frames the runtime sends and
// receives; the lower one sees what the fabric carries, including the
// reliability layer's acks, heartbeats and retransmissions. Without a
// reliability layer the two are adjacent and the upper recorder's
// self time is the bare cost of the recording.

// layer names which recorder an endpoint is.
type layer int

const (
	upper layer = iota
	lower
)

// frameKey identifies one runtime frame in flight. Tags are unique per
// sending node, and a response echoes its request's tag and thread id
// in the opposite direction.
type frameKey struct {
	from, to int
	kind     uint8
	tag, tid uint64
}

// span sample caps: past the cap each new sample replaces a random
// earlier one, so memory stays bounded and the sample stays uniform.
const sampleCap = 1 << 18

// samples is a bounded uniform sample of durations in nanoseconds.
type samples struct {
	v    []int64
	seen int64
	rng  *rand.Rand
}

func newSamples() *samples {
	return &samples{v: make([]int64, 0, sampleCap), rng: rand.New(rand.NewSource(1))}
}

func (s *samples) add(ns int64) {
	s.seen++
	if len(s.v) < cap(s.v) {
		s.v = append(s.v, ns)
		return
	}
	if i := s.rng.Int63n(s.seen); i < int64(len(s.v)) {
		s.v[i] = ns
	}
}

// tidSlots bounds the per-thread wait table; thread ids are sequential
// per invocation, so a window of fewer invocations never collides.
const tidSlots = 1 << 16

// tidWait accumulates one logical thread's blocking round trips on the
// starter: time from a request's Send to its response's Recv.
type tidWait struct {
	tid         uint64
	wait        int64
	first, last int64 // first request sent, last response received
}

// captureCap bounds the frames kept for the wire-codec replay.
const captureCap = 2048

// recorder is shared by every recording endpoint of one deployment.
type recorder struct {
	base time.Time

	upperSends, lowerSends atomic.Int64

	mu      sync.Mutex
	sentAt  map[frameKey]int64 // upper Send entry, awaiting the receiver's Recv
	servAt  map[frameKey]int64 // request Recv on its owner, awaiting the response
	waitAt  map[frameKey]int64 // starter request Send entry, awaiting the response
	relOpen map[frameKey]int64 // lower Send time nested in an open upper Send
	send    *samples           // upper Send call duration
	deliver *samples           // upper Send entry → receiver's upper Recv return
	serve   *samples           // owner's request Recv return → response Send entry
	relSelf *samples           // upper Send minus the lower Sends inside it
	tids    []tidWait
	roundTr int64
	capture []transport.Message // ring of frames the fabric carried
	capNext int
}

func newRecorder() *recorder {
	return &recorder{
		base:    time.Now(),
		sentAt:  map[frameKey]int64{},
		servAt:  map[frameKey]int64{},
		waitAt:  map[frameKey]int64{},
		relOpen: map[frameKey]int64{},
		send:    newSamples(),
		deliver: newSamples(),
		serve:   newSamples(),
		relSelf: newSamples(),
		tids:    make([]tidWait, tidSlots),
		capture: make([]transport.Message, 0, captureCap),
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// wrap puts a recording endpoint of the given layer around ep.
func (r *recorder) wrap(ep transport.Endpoint, l layer) transport.Endpoint {
	return &recEndpoint{inner: ep, rec: r, layer: l}
}

// recEndpoint records the frames crossing one endpoint and forwards
// every optional capability the transport package probes for, so the
// layers above behave exactly as they would over the inner endpoint.
type recEndpoint struct {
	inner transport.Endpoint
	rec   *recorder
	layer layer
}

func (e *recEndpoint) Rank() int    { return e.inner.Rank() }
func (e *recEndpoint) Size() int    { return e.inner.Size() }
func (e *recEndpoint) Close() error { return e.inner.Close() }

func (e *recEndpoint) Send(msg transport.Message) error {
	r := e.rec
	k := frameKey{from: e.inner.Rank(), to: msg.To, kind: msg.Kind, tag: msg.Tag, tid: msg.TID}
	if e.layer == lower {
		r.lowerSends.Add(1)
		r.captureFrame(msg, k.from)
		t0 := r.now()
		err := e.inner.Send(msg)
		d := r.now() - t0
		if msg.Tag != 0 {
			r.mu.Lock()
			if acc, ok := r.relOpen[k]; ok {
				r.relOpen[k] = acc + d
			}
			r.mu.Unlock()
		}
		return err
	}
	r.upperSends.Add(1)
	t0 := r.now()
	if msg.Tag != 0 {
		r.mu.Lock()
		r.sentAt[k] = t0
		r.relOpen[k] = 0
		if msg.Kind == runtime.KindResponse {
			req := frameKey{from: msg.To, to: k.from, tag: msg.Tag, tid: msg.TID}
			if at, ok := r.servAt[req]; ok {
				delete(r.servAt, req)
				r.serve.add(t0 - at)
			}
		} else if k.from == 0 && msg.TID != 0 {
			r.waitAt[frameKey{from: 0, to: msg.To, tag: msg.Tag, tid: msg.TID}] = t0
			if t := r.tid(msg.TID); t.first == 0 {
				t.first = t0
			}
		}
		r.mu.Unlock()
	}
	err := e.inner.Send(msg)
	t1 := r.now()
	r.mu.Lock()
	r.send.add(t1 - t0)
	if msg.Tag != 0 {
		r.relSelf.add(t1 - t0 - r.relOpen[k])
		delete(r.relOpen, k)
	}
	r.mu.Unlock()
	return err
}

func (e *recEndpoint) Recv() (transport.Message, error) {
	msg, err := e.inner.Recv()
	if err != nil || e.layer == lower || msg.Tag == 0 {
		return msg, err
	}
	r := e.rec
	t := r.now()
	me := e.inner.Rank()
	k := frameKey{from: msg.From, to: me, kind: msg.Kind, tag: msg.Tag, tid: msg.TID}
	r.mu.Lock()
	if at, ok := r.sentAt[k]; ok {
		delete(r.sentAt, k)
		r.deliver.add(t - at)
	}
	if msg.Kind == runtime.KindResponse {
		w := frameKey{from: 0, to: msg.From, tag: msg.Tag, tid: msg.TID}
		if me == 0 {
			if at, ok := r.waitAt[w]; ok {
				delete(r.waitAt, w)
				tw := r.tid(msg.TID)
				tw.wait += t - at
				tw.last = t
				r.roundTr++
			}
		}
	} else {
		r.servAt[frameKey{from: msg.From, to: me, tag: msg.Tag, tid: msg.TID}] = t
	}
	r.mu.Unlock()
	return msg, nil
}

// snapshot reads the frame counters and the starter's round trips.
func (r *recorder) snapshot() (upperSends, lowerSends, roundTrips int64) {
	r.mu.Lock()
	roundTrips = r.roundTr
	r.mu.Unlock()
	return r.upperSends.Load(), r.lowerSends.Load(), roundTrips
}

// tid returns the wait slot for a thread id, resetting it when a newer
// thread takes the slot over. Callers hold r.mu.
func (r *recorder) tid(id uint64) *tidWait {
	t := &r.tids[id%tidSlots]
	if t.tid != id {
		*t = tidWait{tid: id}
	}
	return t
}

// captureFrame keeps a copy of a frame the fabric carries, for the
// wire-codec replay. The ring reuses its payload buffers.
func (r *recorder) captureFrame(msg transport.Message, from int) {
	msg.From = from
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.capture) < cap(r.capture) {
		msg.Payload = append([]byte(nil), msg.Payload...)
		r.capture = append(r.capture, msg)
		return
	}
	slot := &r.capture[r.capNext]
	r.capNext = (r.capNext + 1) % len(r.capture)
	buf := append(slot.Payload[:0], msg.Payload...)
	*slot = msg
	slot.Payload = buf
}

// FaultCounters forwards the reliability counters (transport.Faults).
func (e *recEndpoint) FaultCounters() transport.FaultStats {
	f, _ := transport.Faults(e.inner)
	return f
}

// SendCopiesPayload forwards the payload-ownership contract
// (transport.CopiesPayload).
func (e *recEndpoint) SendCopiesPayload() bool { return transport.CopiesPayload(e.inner) }

// Flush forwards the write barrier (transport.Flush).
func (e *recEndpoint) Flush() error { return transport.Flush(e.inner) }

// GrowEndpoint grows the inner fabric and records the new rank too
// (transport.Grow).
func (e *recEndpoint) GrowEndpoint() (transport.Endpoint, error) {
	g, err := transport.Grow(e.inner)
	if err != nil {
		return nil, err
	}
	return e.rec.wrap(g, e.layer), nil
}

// RetireRank forwards peer retirement (transport.RetirePeer).
func (e *recEndpoint) RetireRank(rank int) { transport.RetirePeer(e.inner, rank) }

// CausalDelivery forwards the ordering guarantee (transport.Causal).
func (e *recEndpoint) CausalDelivery() bool { return transport.Causal(e.inner) }

// defaultMaxSteps mirrors autodist's unexported interpretation bound,
// which Deploy applies when Config.MaxSteps is zero.
const defaultMaxSteps = 2_000_000_000

// assemble builds the deployment Deploy would build for cfg, with
// recording endpoints from rec around the reliability layer.
func assemble(d *autodist.Distribution, cfg autodist.Config, rec *recorder) (*runtime.Cluster, error) {
	cfg.K = d.Plan.K
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Adaptive || cfg.Elastic || d.Result.Plan.Adaptive {
		return nil, fmt.Errorf("traced assembly covers static deployments only")
	}
	var eps []transport.Endpoint
	if cfg.TCP {
		topts := transport.DefaultTCPOptions()
		topts.Coalesce = !cfg.TCPNoCoalesce
		topts.Compress = cfg.TCPCompress
		var err error
		if eps, err = transport.NewTCPClusterOpts(cfg.K, topts); err != nil {
			return nil, err
		}
	} else {
		eps = transport.NewInProc(cfg.K)
	}
	if cfg.FailureRecovery {
		_, eps = transport.NewChaos(eps, transport.ChaosRules{
			Seed: cfg.ChaosSeed, Drop: cfg.ChaosDrop, Dup: cfg.ChaosDup, Reorder: cfg.ChaosReorder,
		})
	}
	ropts := transport.ReliableOptions{HeartbeatInterval: cfg.HeartbeatInterval, RetransmitTimeout: cfg.RetransmitTimeout}
	for i := range eps {
		eps[i] = rec.wrap(eps[i], lower)
		if cfg.FailureRecovery {
			eps[i] = transport.NewReliable(eps[i], ropts)
		}
		eps[i] = rec.wrap(eps[i], upper)
	}
	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		maxSteps = defaultMaxSteps
	}
	threshold := cfg.CompileThreshold
	if threshold <= 0 {
		threshold = autodist.DefaultCompileThreshold
	}
	progs := make([]*bytecode.Program, cfg.K)
	copy(progs, d.Result.Nodes)
	rt, err := runtime.NewCluster(progs, d.Result.Plan, eps, runtime.Options{
		Out: io.Discard, CPUSpeeds: cfg.CPUSpeeds, Net: cfg.Net, MaxSteps: maxSteps,
		Unoptimized: cfg.Unoptimized, Fuse: !cfg.NoFuse, Replicate: cfg.Replicate,
		MaxConcurrent: cfg.MaxConcurrent, FailureRecovery: cfg.FailureRecovery,
		Compile: cfg.Compile, CompileThreshold: threshold,
	})
	if err != nil {
		for _, ep := range eps {
			_ = ep.Close()
		}
		return nil, err
	}
	rt.Start()
	return rt, nil
}

// tracedService serves invocations from an assembled runtime cluster.
type tracedService struct{ rt *runtime.Cluster }

func (s *tracedService) invoke(entry string, args ...int64) (any, counters, error) {
	vals := make([]vm.Value, len(args))
	for i, a := range args {
		vals[i] = a
	}
	v, d, err := s.rt.InvokeEntry(entry, vals)
	return v, fromNodeStats(d), err
}

func (s *tracedService) totals() counters { return fromNodeStats(s.rt.TotalStats()) }

func (s *tracedService) shutdown(ctx context.Context) error { return s.rt.Shutdown(ctx) }

func fromNodeStats(s runtime.NodeStats) counters {
	return counters{
		messages: s.MessagesSent, fused: s.FusedBatches, cacheHits: s.CacheHits,
		deopts: s.Deopts, compiledEntries: s.CompiledEntries, tierUps: s.TierUps,
		retransmits: s.Retransmits, recoveries: s.Recoveries,
	}
}

// publicService serves invocations through the public autodist API.
type publicService struct{ c *autodist.Cluster }

func (s publicService) invoke(entry string, args ...int64) (any, counters, error) {
	vals := make([]autodist.Value, len(args))
	for i, a := range args {
		vals[i] = a
	}
	r, err := s.c.Invoke(entry, vals...)
	if err != nil {
		return nil, counters{}, err
	}
	return r.Value, counters{
		messages: r.Messages, cacheHits: r.CacheHits,
		deopts: r.Deopts, compiledEntries: r.CompiledEntries, tierUps: r.TierUps,
	}, nil
}

func (s publicService) totals() counters {
	r := s.c.Stats()
	return counters{
		messages: r.Messages, fused: r.FusedBatches, cacheHits: r.CacheHits,
		deopts: r.Deopts, compiledEntries: r.CompiledEntries, tierUps: r.TierUps,
		retransmits: r.Retransmits, recoveries: r.Recoveries,
	}
}

func (s publicService) shutdown(ctx context.Context) error { return s.c.Shutdown(ctx) }
