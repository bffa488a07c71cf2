// Command overlaysim runs one overlay-matching simulation end to end
// and prints a human-readable report: the topology, the preference
// metric, whether the preference system is acyclic, the run's
// message/round statistics, and the satisfaction the peers achieved
// (with the Theorem-3 guarantee for reference). Each runtime is a
// subcommand that defines only the flags its run reads; `overlaysim
// -h` lists them. A command-line error exits 2, a failed run 1.
//
// Examples:
//
//	overlaysim event -topology gnp -n 200 -p 0.05 -b 3 -metric random
//	overlaysim goroutine -topology geometric -n 500 -radius 0.08 -metric distance
//	overlaysim udp -topology ba -n 300 -m 4 -b 2 -detector on
//	overlaysim churn -n 80 events=60,leave=0.55
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"time"

	"overlaymatch/internal/detector"
	"overlaymatch/internal/faults"
	"overlaymatch/internal/gen"
	"overlaymatch/internal/graph"
	"overlaymatch/internal/lid"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/metrics"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/reliable"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/stats"
	"overlaymatch/internal/transport"
)

func main() {
	cmd, o, err := parseArgs(os.Args[1:])
	if err != nil {
		exitUsage(cmd, err)
	}
	if cmd == "replay" {
		runReplayFile(o.replayPath)
		return
	}

	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if o.memProfile != "" {
		defer func() {
			writeFileWith(o.memProfile, func(w io.Writer) error {
				return pprof.Lookup("allocs").WriteTo(w, 0)
			})
		}()
	}
	runAndReport(cmd, loadSystem(o), o)
}

// exitUsage reports a command-line error, or answers a help request
// with the usage of cmd (of overlaysim when cmd is no subcommand).
func exitUsage(cmd string, err error) {
	if !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "overlaysim: %v\n", err)
		if cmd != "" {
			fmt.Fprintf(os.Stderr, "Run 'overlaysim %s -h' for its flags.\n", cmd)
		} else {
			fmt.Fprintln(os.Stderr, usage)
		}
		os.Exit(2)
	}
	if fs, ferr := newFlagSet(cmd, new(options)); ferr == nil {
		fmt.Fprintf(os.Stderr, "usage of overlaysim %s:\n", cmd)
		fs.SetOutput(os.Stderr)
		fs.PrintDefaults()
	} else {
		fmt.Fprintln(os.Stderr, usage)
	}
	os.Exit(0)
}

// loadSystem reads the -workload file or generates the workload, and
// prints the report's header.
func loadSystem(o options) *pref.System {
	if o.workloadPath != "" {
		f, err := os.Open(o.workloadPath)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		sys, err := pref.ReadJSON(f)
		if err != nil {
			fail("%v", err)
		}
		g := sys.Graph()
		fmt.Printf("workload %s: n=%d m=%d, avg degree %.2f\n",
			o.workloadPath, g.NumNodes(), g.NumEdges(), g.AvgDegree())
		return sys
	}

	src := rng.New(o.seed)
	var g *graph.Graph
	var coords [][2]float64
	switch o.topology {
	case "gnp":
		g = gen.GNP(src.Split(), o.n, o.p)
	case "geometric":
		g, coords = gen.Geometric(src.Split(), o.n, o.radius)
	case "ba":
		g = gen.BarabasiAlbert(src.Split(), o.n, o.mAttach)
	case "ws":
		g = gen.WattsStrogatz(src.Split(), o.n, o.k, o.beta)
	case "ring":
		g = gen.Ring(o.n)
	case "grid":
		cols := (o.n + o.rows - 1) / o.rows
		g = gen.Grid(o.rows, cols)
	case "complete":
		g = gen.Complete(o.n)
	case "tree":
		g = gen.RandomTree(src.Split(), o.n)
	default:
		fail("unknown topology %q", o.topology)
	}

	var m pref.Metric
	switch o.metric {
	case "random":
		m = pref.NewRandomMetric(src.Split())
	case "symmetric":
		m = pref.NewSymmetricRandomMetric(src.Split())
	case "distance":
		if coords == nil {
			coords = make([][2]float64, g.NumNodes())
			for i := range coords {
				coords[i] = [2]float64{src.Float64(), src.Float64()}
			}
		}
		m = pref.DistanceMetric{Coords: coords}
	case "resource":
		capacity := make([]float64, g.NumNodes())
		for i := range capacity {
			capacity[i] = src.Float64()
		}
		m = pref.ResourceMetric{Capacity: capacity}
	case "transactions":
		hist := make([][]float64, g.NumNodes())
		for i := range hist {
			hist[i] = make([]float64, g.NumNodes())
			for _, j := range g.Neighbors(i) {
				hist[i][j] = src.NormFloat64()
			}
		}
		m = pref.TransactionMetric{History: hist}
	default:
		fail("unknown metric %q", o.metric)
	}

	sys, err := pref.Build(g, m, pref.UniformQuota(o.quota))
	if err != nil {
		fail("building preferences: %v", err)
	}
	fmt.Printf("overlay: %s, n=%d m=%d, avg degree %.2f (min %d, max %d)\n",
		o.topology, g.NumNodes(), g.NumEdges(), g.AvgDegree(), g.MinDegree(), g.MaxDegree())
	fmt.Printf("preferences: metric=%s, quota b=%d\n", o.metric, o.quota)
	return sys
}

// runReplayFile re-executes a frozen fault replay (faults.ReplayFile)
// and reports whether the recorded violation reproduces. Exit status:
// 0 when the re-execution is consistent with the file (the recorded
// violation reproduces, or a clean file stays clean), 1 otherwise.
func runReplayFile(path string) {
	f, err := os.Open(path)
	if err != nil {
		fail("%v", err)
	}
	rf, err := faults.LoadReplay(f)
	f.Close()
	if err != nil {
		fail("%v", err)
	}
	w := rf.Workload
	fmt.Printf("replay %s: %s n=%d b=%d metric=%s seed=%d, spec %s, %d events, reliable=%v\n",
		path, w.Topology, w.N, w.B, w.Metric, rf.Seed, rf.Spec, len(rf.Events), rf.Reliable)
	if rf.Err != "" {
		fmt.Printf("recorded violation: %s\n", rf.Err)
	}
	out, err := rf.Run()
	if err != nil {
		fail("replay: %v", err)
	}
	switch {
	case out.Violation == "" && rf.Err == "":
		fmt.Println("re-execution: clean (no recorded violation, none reproduced)")
	case out.Violation == "":
		fmt.Println("re-execution: CLEAN — the recorded violation did NOT reproduce")
		os.Exit(1)
	case out.Matches:
		fmt.Printf("re-execution: violation reproduced: %s\n", out.Violation)
	case rf.Err == "":
		fmt.Printf("re-execution: violation found (file recorded none): %s\n", out.Violation)
		os.Exit(1)
	default:
		fmt.Printf("re-execution: DIFFERENT violation: %s\n", out.Violation)
		os.Exit(1)
	}
}

// runAndReport runs subcommand cmd on sys and prints the report.
func runAndReport(cmd string, sys *pref.System, o options) {
	if cmd == "churn" {
		runChurnReport(sys, o)
		return
	}
	g := sys.Graph()
	tbl := satisfaction.NewTableParallel(sys, o.workers)
	var reg *metrics.Registry
	if o.showMetrics {
		reg = metrics.New()
	}
	var rec *obs.Recorder
	if o.spansPath != "" {
		rec = obs.NewRecorder(g.NumNodes())
	}
	fmt.Printf("acyclic=%v; guarantee: LID achieves >= %.4f of optimal total satisfaction (Theorem 3)\n\n",
		pref.IsAcyclic(sys), satisfaction.Theorem3Bound(max(sys.MaxQuota(), 1)))

	var result *matching.Matching
	if cmd == "lic" {
		start := time.Now()
		result = matching.LIC(sys, tbl)
		fmt.Printf("centralized run (LIC scan): %v\n", time.Since(start))
	} else {
		result = runLID(cmd, sys, tbl, o, reg, rec)
	}

	per := result.PerNodeSatisfaction(sys)
	sum := stats.Summarize(per)
	fmt.Printf("\nmatching: %d connections (quota fill %.1f%%), total weight %.4f\n",
		result.Size(), 100*fill(sys, result), result.Weight(sys))
	fmt.Printf("satisfaction: total %.4f, mean %.4f, min %.4f, median %.4f, fairness %.4f\n",
		result.TotalSatisfaction(sys), sum.Mean, sum.Min, sum.Median, stats.JainFairness(per))

	if o.verbose {
		fmt.Println("\nper-peer connections:")
		for i := 0; i < g.NumNodes(); i++ {
			fmt.Printf("  %4d (b=%d, S=%.3f): %v\n", i, sys.Quota(i), per[i], result.Connections(i))
		}
	}

	if o.dotPath != "" {
		writeFileWith(o.dotPath, func(w io.Writer) error {
			return writeDOT(w, sys, result)
		})
		fmt.Printf("wrote Graphviz overlay to %s\n", o.dotPath)
	}
	if rec != nil {
		writeFileWith(o.spansPath, func(w io.Writer) error {
			return rec.WriteFormat(w, o.spansFormat)
		})
		fmt.Printf("wrote span trace (%s, %d events) to %s\n",
			o.spansFormat, rec.Len(), o.spansPath)
	}
	if reg != nil {
		fmt.Println("\nmetrics:")
		if err := reg.Snapshot().WriteFormat(os.Stdout, o.metricsFormat); err != nil {
			fail("metrics: %v", err)
		}
	}
}

// runLID runs LID on the runtime of subcommand cmd (event, goroutine
// or udp) and prints the run's section of the report. Every runtime
// takes one path: the nodes, the optional layers, the runtime's Run
// method, and lid.Finish, which publishes the lid_* counters into reg.
func runLID(cmd string, sys *pref.System, tbl *satisfaction.Table, o options, reg *metrics.Registry, rec *obs.Recorder) *matching.Matching {
	g := sys.Graph()
	n := g.NumNodes()
	layers := stack{o: o}
	if !o.faults.IsZero() {
		layers.policy = faults.NewInjector(o.faults, o.faultsSeed)
	}
	start := time.Now()
	nodes := lid.NewNodes(sys, tbl)

	var run func([]simnet.Handler) (simnet.Stats, error)
	var prober *obs.Prober
	var cluster *transport.Cluster
	var label string
	switch cmd {
	case "event":
		label = fmt.Sprintf("event simulator, jitter %.1f, scheduler %s", o.jitter, o.sched)
		ropts := simnet.Options{Seed: o.seed, Latency: latency(o.jitter), Metrics: reg, Policy: layers.policy, Obs: rec}
		if o.sched.Greedy() {
			// The admitter watches the LID state machines directly, so
			// the optional layers stay transparent to it.
			ropts.Admitter = lid.NewGreedyAdmitter(sys, tbl, nodes, o.sched)
		}
		// The sampler closes over the runner (for the cumulative send
		// totals), which does not exist until the options are final.
		var runner *simnet.Runner
		if o.probeInterval > 0 {
			optimum := matching.LIC(sys, tbl).Weight(sys)
			sampler := lid.StabilitySampler(sys, tbl, nodes, func() (int64, int64) {
				return runner.SentTotals()
			})
			// A private registry when -metrics is off keeps the probe
			// series out of the report.
			prober = obs.NewProber(cmp.Or(reg, metrics.New()), o.probeInterval, g.NumEdges(), optimum, sampler)
			ropts.Probe = prober.Probe
			ropts.ProbeInterval = o.probeInterval
		}
		runner = simnet.NewRunner(n, ropts)
		run = runner.Run
	case "goroutine":
		label = "goroutines"
		runner := simnet.NewGoRunner(n, 2*time.Minute)
		runner.SetMetricsSink(reg)
		runner.SetPolicy(layers.policy)
		runner.SetObserver(rec)
		run = runner.Run
	case "udp":
		// Real loopback sockets: every message crosses the kernel as
		// coalesced UDP datagrams.
		label = "udp loopback cluster"
		var err error
		if cluster, err = transport.NewLoopbackCluster(n, transport.ClusterConfig{}); err != nil {
			fail("run: %v", err)
		}
		run = cluster.Run
	}

	st, err := run(layers.wrap(g, lid.Handlers(nodes)))
	if err != nil {
		fail("run: %v", err)
	}
	res, err := lid.Finish(nodes, st, reg)
	if err != nil {
		fail("run: %v", err)
	}
	fmt.Printf("distributed run (%s): %v\n", label, time.Since(start))
	if cmd != "event" {
		fmt.Printf("  messages: %d total (%d PROP, %d REJ)\n", st.TotalSent(), st.SentByKind["PROP"], st.SentByKind["REJ"])
	} else {
		fmt.Printf("  messages: %d total (%d PROP, %d REJ), %.2f per peer, max %d\n",
			st.TotalSent(), st.SentByKind["PROP"], st.SentByKind["REJ"],
			float64(st.TotalSent())/float64(n), st.MaxSentByNode())
		fmt.Printf("  virtual time to quiescence: %.2f\n", st.FinalTime)
	}
	if prober != nil {
		prober.PublishSummary(reg, nil)
		eps := prober.RoundsToEps(nil)
		fmt.Printf("  stability: %d probes every %.1f; rounds to eps 0.1/0.01/0.001/0: %.0f / %.0f / %.0f / %.0f (-1 = never)\n",
			len(prober.Curve()), o.probeInterval,
			eps[obs.EpsKey(0.1)], eps[obs.EpsKey(0.01)], eps[obs.EpsKey(0.001)], eps[obs.EpsKey(0)])
	}
	if cluster != nil {
		var datagrams, bytesOut int64
		for _, nd := range cluster.Nodes() {
			c := nd.Counters()
			datagrams += c.DatagramsSent
			bytesOut += c.BytesSent
			if reg != nil {
				nd.PublishMetrics(reg)
			}
		}
		fmt.Printf("  wire: %d frames coalesced into %d datagrams, %d bytes, %d dropped\n",
			st.TotalSent(), datagrams, bytesOut, st.Dropped)
	}
	layers.report(st, reg)
	return res.Matching
}

// stack is what sits between LID and the runtime: the fault policy on
// the links and the optional layers around the handlers. With none of
// them on, wrap is the identity and report prints nothing.
type stack struct {
	o      options
	policy simnet.LinkPolicy // nil when -faults is off: no policy at all
	eps    []*reliable.Endpoint
	mons   []*detector.Monitor
}

// wrap stacks the optional layers inside-out: the reliable transport
// below the failure detector, mirroring dlid.RunSelfHeal.
func (s *stack) wrap(g *graph.Graph, handlers []simnet.Handler) []simnet.Handler {
	if s.o.reliable {
		s.eps = reliable.WrapConfig(handlers, reliable.Config{RTO: s.o.rto, Adaptive: s.o.adaptiveRTO})
		handlers = reliable.Handlers(s.eps)
	}
	if s.o.det.Enabled() {
		adj := make([][]int, g.NumNodes())
		for i := range adj {
			adj[i] = g.Neighbors(i)
		}
		s.mons = detector.Wrap(handlers, adj, s.o.det)
		handlers = detector.Handlers(s.mons)
	}
	return handlers
}

// report prints the fault and layer lines of the report and publishes
// the layers' metrics into reg.
func (s *stack) report(st simnet.Stats, reg *metrics.Registry) {
	if inj, ok := s.policy.(*faults.Injector); ok {
		fmt.Printf("  faults: %s -> %d injections over %d sends\n",
			s.o.faults, len(inj.Events()), inj.Sends())
	}
	if s.eps != nil {
		reliable.PublishMetrics(reg, s.eps)
		mode := "static"
		if s.o.adaptiveRTO {
			mode = "adaptive"
		}
		fmt.Printf("  transport: rto %.1f (%s), %d retransmits, %d duplicates suppressed, %d corrupt discarded\n",
			s.o.rto, mode, reliable.TotalRetransmits(s.eps), reliable.TotalDuplicates(s.eps), reliable.TotalCorrupted(s.eps))
	}
	if s.mons != nil {
		detector.PublishMetrics(reg, s.mons)
		fmt.Printf("  detector: %s -> %d suspicions, %d restores (%d HB, %d HB-ACK)\n",
			s.o.det, detector.TotalSuspicions(s.mons), detector.TotalRestores(s.mons),
			st.SentByKind["HB"], st.SentByKind["HB-ACK"])
	}
}

// writeFileWith creates path and streams content through fn.
func writeFileWith(path string, fn func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fail("%v", err)
	}
	defer f.Close()
	if err := fn(f); err != nil {
		fail("%v", err)
	}
}

func latency(jitter float64) simnet.LatencyFunc {
	if jitter <= 0 {
		return simnet.UnitLatency
	}
	return simnet.ExponentialLatency(jitter)
}

func fill(s *pref.System, m *matching.Matching) float64 {
	var used, want int
	for i := 0; i < s.Graph().NumNodes(); i++ {
		used += m.DegreeOf(i)
		want += s.Quota(i)
	}
	if want == 0 {
		return 1
	}
	return float64(used) / float64(want)
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "overlaysim: "+format+"\n", args...)
	os.Exit(1)
}
