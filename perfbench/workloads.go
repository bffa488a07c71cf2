package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"overlaymatch/internal/dynamic"
	"overlaymatch/internal/gen"
	"overlaymatch/internal/lid"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/metrics"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/reliable"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/transport"
	"overlaymatch/internal/workload"
)

// scenario is one benchmark workload. newWorkload builds its inputs
// outside every timer; setup and run are the two timed phases of one
// iteration. After the clock stops, output hands over the run's
// matching and check validates a matching against the run's reference;
// the negative control feeds check a corrupted matching.
type scenario interface {
	// reset drops everything the previous iteration built, so that only
	// the inputs stay live.
	reset()
	setup(t *tracer) error
	run(t *tracer, it *iteration) error
	// output returns the last run's matching and its preference system,
	// and records the run's exact counts in it.fp and its counters in
	// it.msgs and it.layer. It runs with the clock stopped.
	output(it *iteration) (*matching.Matching, *pref.System)
	check(m *matching.Matching) error
}

// iteration is what one setup+run reports.
type iteration struct {
	id         int // iteration index, the span run id
	nodes      int
	setup, run time.Duration
	// converge is the wall time of the distributed or dynamic phase:
	// the LID call on the event workloads, submit loop plus Drain on
	// churn, Cluster.Run start to the last LID handler return on udp.
	converge time.Duration
	fp       fingerprint
	// msgs is the run's protocol cost: frames sent on the LID
	// workloads, candidate edges examined by repair on churn (the
	// engine's own proxy for repair messages).
	msgs float64
	// ops counts the checked operations beyond the iteration's own
	// build (one per submitted update on churn); opsFailed how many of
	// them errored.
	ops, opsFailed int
	// rssMB is the process's peak RSS during the iteration.
	rssMB float64
	// lat holds the per-update Submit latencies (churn only).
	lat []time.Duration
	// layer holds per-layer counters; the ones that need tracing are
	// filled on traced iterations only.
	layer map[string]float64
}

// fingerprint is the exact outcome of one run. Iterations of one
// process must agree on it, and for the pinned seeds it must equal the
// recorded value, so a faster time for different work cannot pass.
type fingerprint struct {
	Edges    int
	Matched  int
	Weight   float64
	Prop     int
	Rej      int
	Rounds   float64
	Examined int
	Epochs   int
	Retries  int
}

// streams derives every generator stream of a run from the one
// workload seed, in a fixed order.
type streams struct{ topo, pref, lat, feed uint64 }

func deriveStreams(seed uint64) streams {
	src := rng.New(seed)
	return streams{topo: src.Uint64(), pref: src.Uint64(), lat: src.Uint64(), feed: src.Uint64()}
}

// Default instance sizes; the smoke test passes a small n instead.
const (
	defaultN     = 100_000
	defaultUDPN  = 256
	churnEvents  = 20_000
	avgDegree    = 8
	uniformQuota = 3
	udpRTO       = 40
)

var workloadNames = []string{"pipeline-gnp", "hetero-greedy", "churn", "udp-loopback"}

// newWorkload builds the named workload's inputs for seed. n <= 0 picks
// the default size.
func newWorkload(name string, seed uint64, n int) (scenario, error) {
	st := deriveStreams(seed)
	switch name {
	case "pipeline-gnp":
		return &pipelineGNP{n: orDefault(n, defaultN), st: st}, nil
	case "hetero-greedy":
		return newHeteroGreedy(orDefault(n, defaultN), st)
	case "churn":
		return newChurn(orDefault(n, defaultN), orDefault(n/5, churnEvents), st)
	case "udp-loopback":
		return newUDPLoopback(orDefault(n, defaultUDPN), st)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func orDefault(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// gnpSystem draws G(n, p) with average degree 8 and ranks it with the
// memoizing random metric under a uniform quota of 3.
func gnpSystem(t *tracer, n int, st streams) (*pref.System, error) {
	t.begin("gen.GNP")
	g := gen.GNP(rng.New(st.topo), n, float64(avgDegree)/float64(n-1))
	t.end()
	t.begin("pref.Build")
	defer t.end()
	return pref.Build(g, pref.NewRandomMetric(rng.New(st.pref)), pref.UniformQuota(uniformQuota))
}

// equalMatching is the ≡ oracle: got must be exactly want.
func equalMatching(got, want *matching.Matching) error {
	if got == nil || want == nil {
		return errors.New("missing matching")
	}
	if !got.Equal(want) {
		return fmt.Errorf("matching differs from reference: %d edges, want %d", got.Size(), want.Size())
	}
	return nil
}

// corruptMatching returns a copy of m without its first edge: the
// negative control's wrong answer.
func corruptMatching(m *matching.Matching) (*matching.Matching, error) {
	if m == nil || m.Size() == 0 {
		return nil, errors.New("negative control: nothing to corrupt")
	}
	c := m.Clone()
	e := c.Edges()[0]
	c.Remove(e.U, e.V)
	return c, nil
}

// eventRun is the shared run phase of the two event-simulator
// workloads: LIC, then LID on the deterministic Runner; the check is
// LID ≡ LIC. Untraced it calls lid.RunEventScheduled as a user would.
// Traced it forces the lazy weight-list sort into its own span and
// splits LID into NewNodes / [NewGreedyAdmitter] / Runner.Run /
// BuildMatching, which must reproduce RunEventScheduled's matching and
// counts (the fingerprint check enforces that).
type eventRun struct {
	sys   *pref.System
	tbl   *satisfaction.Table
	sched lid.SchedulerSpec
	seed  uint64

	res  lid.Result
	want *matching.Matching
}

func (e *eventRun) reset() { *e = eventRun{} }

func (e *eventRun) run(t *tracer, it *iteration) error {
	if t != nil {
		t.begin("satisfaction.SortedNeighbors")
		e.tbl.SortedNeighbors(e.sys, 0)
		t.end()
	}
	t.begin("matching.LIC")
	e.want = matching.LIC(e.sys, e.tbl)
	t.end()

	opts := simnet.Options{Seed: e.seed}
	start := time.Now()
	var err error
	if t == nil {
		e.res, err = lid.RunEventScheduled(e.sys, e.tbl, opts, e.sched)
	} else {
		e.res, err = e.splitLID(t, opts, it)
	}
	it.converge = time.Since(start)
	it.msgs = float64(e.res.Stats.TotalSent())
	return err
}

func (e *eventRun) splitLID(t *tracer, opts simnet.Options, it *iteration) (lid.Result, error) {
	n := e.sys.Graph().NumNodes()
	t.begin("lid.NewNodes")
	nodes := lid.NewNodes(e.sys, e.tbl)
	t.end()
	if e.sched.Greedy() {
		t.begin("lid.NewGreedyAdmitter")
		opts.Admitter = lid.NewGreedyAdmitter(e.sys, e.tbl, nodes, e.sched)
		t.end()
	}
	t.begin("simnet.NewRunner")
	runner := simnet.NewRunner(n, opts)
	t.end()
	t.begin("simnet.Run")
	stats, err := runner.Run(lid.Handlers(nodes))
	t.end()
	if err != nil {
		return lid.Result{}, err
	}
	t.begin("lid.BuildMatching")
	m, err := lid.BuildMatching(nodes)
	t.end()
	if err != nil {
		return lid.Result{}, err
	}
	it.layer["simnet.deliveries"] = float64(stats.Deliveries)
	it.layer["simnet.admission_batches"] = float64(runner.Metrics().Counter("simnet_admission_batches_total", "").Value())
	it.layer["lid.prop"] = float64(stats.SentByKind["PROP"])
	it.layer["lid.rej"] = float64(stats.SentByKind["REJ"])
	it.layer["simnet.rounds"] = stats.FinalTime
	return lid.Result{
		Matching:     m,
		Stats:        stats,
		PropMessages: stats.SentByKind["PROP"],
		RejMessages:  stats.SentByKind["REJ"],
	}, nil
}

func (e *eventRun) output(it *iteration) (*matching.Matching, *pref.System) {
	it.fp.Prop, it.fp.Rej, it.fp.Rounds = e.res.PropMessages, e.res.RejMessages, e.res.Stats.FinalTime
	return e.res.Matching, e.sys
}

func (e *eventRun) check(m *matching.Matching) error {
	if err := equalMatching(m, e.want); err != nil {
		return fmt.Errorf("LID != LIC: %w", err)
	}
	return nil
}

// pipelineGNP is ROADMAP's unit of measurement: set-up is what the
// public Build does (gen, pref, eq.-9 table); the run is LIC and LID on
// the event simulator with unit latency.
type pipelineGNP struct {
	n  int
	st streams
	eventRun
}

func (w *pipelineGNP) setup(t *tracer) error {
	sys, err := gnpSystem(t, w.n, w.st)
	if err != nil {
		return err
	}
	t.begin("satisfaction.NewTable")
	tbl := satisfaction.NewTable(sys)
	t.end()
	w.eventRun = eventRun{sys: sys, tbl: tbl, seed: w.st.lat}
	return nil
}

// heteroGreedy runs the heavy-tailed hetero family under the greedy
// heaviest-frontier admission scheduler.
type heteroGreedy struct {
	spec   workload.Spec
	st     streams
	greedy lid.SchedulerSpec
	eventRun
}

func newHeteroGreedy(n int, st streams) (*heteroGreedy, error) {
	spec, err := workload.Parse(fmt.Sprintf("hetero:n=%d", n))
	if err != nil {
		return nil, err
	}
	greedy, err := lid.ParseSchedulerSpec("greedy")
	if err != nil {
		return nil, err
	}
	return &heteroGreedy{spec: spec, st: st, greedy: greedy}, nil
}

func (w *heteroGreedy) setup(t *tracer) error {
	t.begin("workload.Build")
	inst, err := workload.Build(w.spec, w.st.topo, 1)
	t.end()
	if err != nil {
		return err
	}
	t.begin("satisfaction.NewTable")
	tbl := satisfaction.NewTable(inst.System)
	t.end()
	w.eventRun = eventRun{sys: inst.System, tbl: tbl, sched: w.greedy, seed: w.st.lat}
	return nil
}

// churn drives a prebuilt membership feed through dynamic.Engine as a
// closed loop: each Submit is issued only after the previous returns.
type churn struct {
	sys  *pref.System
	feed []dynamic.TimedEvent

	eng *dynamic.Engine
	reg *metrics.Registry // engine instruments, traced iterations only
}

func (w *churn) reset() { w.eng, w.reg = nil, nil }

func newChurn(n, events int, st streams) (*churn, error) {
	// Topology, preferences and the feed are inputs, built before any
	// timer starts. The feed matters most: ChurnSpec.Schedule scans all
	// n nodes for every event, O(n) per event, and at n=100k that costs
	// more than the engine work it feeds.
	sys, err := gnpSystem(nil, n, st)
	if err != nil {
		return nil, err
	}
	spec := dynamic.ChurnSpec{Events: events, LeaveProb: 0.5, MinAlive: n / 2, Rate: 0.05}
	feed, err := spec.Schedule(n, st.feed)
	if err != nil {
		return nil, err
	}
	return &churn{sys: sys, feed: feed}, nil
}

func (w *churn) setup(t *tracer) error {
	var opts dynamic.EngineOptions
	w.reg = nil
	if t != nil {
		w.reg = metrics.New()
		opts.Metrics = w.reg
	}
	t.begin("dynamic.NewEngine")
	defer t.end()
	eng, err := dynamic.NewEngine(w.sys, opts)
	w.eng = eng
	return err
}

func (w *churn) run(t *tracer, it *iteration) error {
	it.lat = make([]time.Duration, 0, len(w.feed))
	start := time.Now()
	t.begin("dynamic.Submit")
	for _, ev := range w.feed {
		t0 := time.Now()
		err := w.eng.Submit(dynamic.Update{Kind: ev.Kind, At: ev.At, Node: ev.Node})
		it.lat = append(it.lat, time.Since(t0))
		it.ops++
		if err != nil {
			it.opsFailed++
		}
	}
	t.end()
	t.begin("dynamic.Drain")
	w.eng.Drain()
	t.end()
	it.converge = time.Since(start)
	if it.opsFailed > 0 {
		return fmt.Errorf("%d of %d submits failed", it.opsFailed, it.ops)
	}
	return nil
}

func (w *churn) output(it *iteration) (*matching.Matching, *pref.System) {
	recs := w.eng.Records()
	examined, region := 0, 0
	for _, r := range recs {
		examined += r.Stats.Examined
		region += r.Region
	}
	it.msgs = float64(examined)
	it.layer["dynamic.epochs"] = float64(len(recs))
	it.layer["dynamic.retries"] = float64(w.eng.TotalRetries())
	if len(recs) > 0 {
		it.layer["dynamic.region_mean"] = float64(region) / float64(len(recs))
	}
	it.layer["dynamic.deferred"] = float64(w.eng.DeferredBound())
	if w.reg != nil {
		it.layer["dynamic.prefix_skipped"] = float64(w.reg.Counter("dynamic_prefix_skipped_total", "").Value())
	}
	it.fp.Examined = examined
	it.fp.Epochs = len(recs)
	it.fp.Retries = int(w.eng.TotalRetries())
	return w.eng.Overlay().Matching(), w.sys
}

func (w *churn) check(m *matching.Matching) error {
	o := w.eng.Overlay()
	if err := o.Validate(); err != nil {
		return fmt.Errorf("overlay invalid: %w", err)
	}
	if b := o.BlockingEdges(); b != 0 {
		return fmt.Errorf("%d blocking edges after Drain", b)
	}
	if err := equalMatching(m, o.LiveLICInherited()); err != nil {
		return fmt.Errorf("repaired matching != LiveLICInherited: %w", err)
	}
	return nil
}

// udpLoopback deploys LID over real loopback sockets the way
// `overlaysim -runtime udp -reliable` does: n UDP nodes, the reliable
// layer (RTO 40) beneath LID, no failure detector.
type udpLoopback struct {
	sys  *pref.System
	tbl  *satisfaction.Table
	want *matching.Matching

	cluster *transport.Cluster
	nodes   []*lid.Node
	eps     []*reliable.Endpoint
	shim    *handlerClock
	out     *matching.Matching
	stats   simnet.Stats
	tail    time.Duration // Cluster.Run return minus the last LID handler return
}

func (w *udpLoopback) reset() {
	if w.cluster != nil {
		w.cluster.Close()
	}
	w.cluster, w.nodes, w.eps, w.shim, w.out = nil, nil, nil, nil, nil
	w.stats = simnet.Stats{}
}

func newUDPLoopback(n int, st streams) (*udpLoopback, error) {
	sys, err := gnpSystem(nil, n, st)
	if err != nil {
		return nil, err
	}
	tbl := satisfaction.NewTable(sys)
	return &udpLoopback{sys: sys, tbl: tbl, want: matching.LIC(sys, tbl)}, nil
}

func (w *udpLoopback) setup(t *tracer) error {
	t.begin("transport.NewLoopbackCluster")
	cluster, err := transport.NewLoopbackCluster(w.sys.Graph().NumNodes(), transport.ClusterConfig{})
	t.end()
	if err != nil {
		return err
	}
	w.cluster = cluster
	t.begin("lid.NewNodes")
	w.nodes = lid.NewNodes(w.sys, w.tbl)
	t.end()
	w.shim = &handlerClock{busy: t != nil}
	t.begin("reliable.WrapConfig")
	w.eps = reliable.WrapConfig(w.shim.wrap(lid.Handlers(w.nodes)), reliable.Config{RTO: udpRTO})
	t.end()
	return nil
}

func (w *udpLoopback) run(t *tracer, it *iteration) error {
	w.shim.start = time.Now()
	t.begin("transport.Cluster.Run")
	var err error
	w.stats, err = w.cluster.Run(reliable.Handlers(w.eps))
	t.end()
	w.tail = time.Since(w.shim.start)
	if err != nil {
		return err
	}
	it.converge = time.Duration(w.shim.last.Load())
	w.tail -= it.converge
	t.begin("lid.BuildMatching")
	w.out, err = lid.BuildMatching(w.nodes)
	t.end()
	return err
}

// output leaves the message counts out of the fingerprint: on the real
// wire they depend on the interleaving.
func (w *udpLoopback) output(it *iteration) (*matching.Matching, *pref.System) {
	st := w.stats
	it.msgs = float64(st.TotalSent())
	var datagrams, bytes int64
	for _, nd := range w.cluster.Nodes() {
		c := nd.Counters()
		datagrams += c.DatagramsSent
		bytes += c.BytesSent
	}
	var data, acks, retx, dups, abandoned int
	for _, ep := range w.eps {
		data += ep.Frames()
		acks += ep.Acks()
		retx += ep.Retransmits()
		dups += ep.Duplicates()
		abandoned += ep.Abandoned()
	}
	n := float64(w.sys.Graph().NumNodes())
	it.layer["transport.frames_sent"] = float64(st.TotalSent())
	it.layer["transport.datagrams_sent"] = float64(datagrams)
	if datagrams > 0 {
		it.layer["transport.frames_per_datagram"] = float64(st.TotalSent()) / float64(datagrams)
	}
	it.layer["transport.bytes_sent"] = float64(bytes)
	it.layer["transport.wire_bytes_per_node"] = float64(bytes) / n
	it.layer["transport.dropped"] = float64(st.Dropped)
	it.layer["transport.quiesce_tail_s"] = w.tail.Seconds()
	it.layer["reliable.data_frames"] = float64(data)
	it.layer["reliable.acks"] = float64(acks)
	it.layer["reliable.retransmits"] = float64(retx)
	if data > 0 {
		it.layer["reliable.retx_ratio"] = float64(retx) / float64(data)
	}
	it.layer["reliable.duplicates"] = float64(dups)
	it.layer["reliable.abandoned"] = float64(abandoned)
	it.layer["lid.handler_s"] = time.Duration(w.shim.busyNS.Load()).Seconds()
	it.layer["lid.prop"] = float64(st.SentByKind["PROP"])
	it.layer["lid.rej"] = float64(st.SentByKind["REJ"])
	return w.out, w.sys
}

func (w *udpLoopback) check(m *matching.Matching) error {
	if err := equalMatching(m, w.want); err != nil {
		return fmt.Errorf("cluster matching != LIC: %w", err)
	}
	return nil
}

// handlerClock wraps the LID handlers beneath the reliable layer. Every
// node's delivery goroutine calls its handler, so the shared fields are
// atomics: last is the latest handler return (ns after start), busyNS
// the summed wall time inside handlers, kept only when busy is set.
type handlerClock struct {
	start  time.Time
	busy   bool
	last   atomic.Int64
	busyNS atomic.Int64
}

func (c *handlerClock) wrap(hs []simnet.Handler) []simnet.Handler {
	out := make([]simnet.Handler, len(hs))
	for i, h := range hs {
		out[i] = &clockedHandler{inner: h, clock: c}
	}
	return out
}

// done records a handler return; t0 is the call's start.
func (c *handlerClock) done(t0 time.Time) {
	now := time.Now()
	if c.busy {
		c.busyNS.Add(int64(now.Sub(t0)))
	}
	at := int64(now.Sub(c.start))
	for {
		prev := c.last.Load()
		if at <= prev || c.last.CompareAndSwap(prev, at) {
			return
		}
	}
}

type clockedHandler struct {
	inner simnet.Handler
	clock *handlerClock
}

func (h *clockedHandler) Init(ctx simnet.Context) {
	t0 := time.Now()
	h.inner.Init(ctx)
	h.clock.done(t0)
}

func (h *clockedHandler) HandleMessage(ctx simnet.Context, from int, msg simnet.Message) {
	t0 := time.Now()
	h.inner.HandleMessage(ctx, from, msg)
	h.clock.done(t0)
}
