package main

import (
	"errors"
	"flag"
	"fmt"
	"io"

	"overlaymatch/internal/detector"
	"overlaymatch/internal/dynamic"
	"overlaymatch/internal/faults"
	"overlaymatch/internal/lid"
)

const usage = `usage: overlaysim SUBCOMMAND [flags] [ARG]
  event [flags]        run LID on the deterministic event simulator
  goroutine [flags]    run LID with one goroutine per peer
  udp [flags]          run LID under the reliable layer on a loopback UDP cluster
  lic [flags]          compute the centralized LIC matching
  churn [flags] SPEC   stream a membership feed through the churn-repair engine
  replay FILE          re-execute a frozen fault replay file
Run 'overlaysim SUBCOMMAND -h' for the subcommand's flags.`

// options is one parsed command line. A subcommand's flag set writes
// only the fields its run reads; the others keep their zero value.
type options struct {
	// The workload, shared by every subcommand but replay.
	topology, metric, workloadPath string
	n, mAttach, k, rows, quota     int
	p, radius, beta                float64
	seed                           uint64
	workers                        int
	cpuProfile, memProfile         string

	// The report, the LID run and the churn engine.
	verbose, showMetrics          bool
	dotPath, spansPath            string
	metricsFormat, spansFormat    string
	jitter, probeInterval         float64
	sched                         lid.SchedulerSpec
	faults                        faults.Spec
	faultsSeed                    uint64
	reliable, adaptiveRTO         bool
	rto, hbInterval, phiThreshold float64
	det                           detector.Config
	churn                         dynamic.ChurnSpec
	repairRounds, shedDepth       int
	replayPath                    string
}

// parseArgs parses an overlaysim command line (without the program
// name) into its subcommand and options. It never exits or prints: a
// help request returns flag.ErrHelp. A flag that belongs to another
// subcommand is not defined in this one's flag set, so contradictions
// fail in flag parsing itself.
func parseArgs(args []string) (string, options, error) {
	var o options
	if len(args) == 0 {
		return "", o, errors.New("no subcommand")
	}
	cmd := args[0]
	switch cmd {
	case "-h", "-help", "--help", "help":
		return "", o, flag.ErrHelp
	}
	fs, err := newFlagSet(cmd, &o)
	if err != nil {
		return "", o, err
	}
	if err := fs.Parse(args[1:]); err != nil {
		return cmd, o, err
	}
	return cmd, o, o.check(cmd, fs.Args())
}

// newFlagSet registers the flags of subcommand cmd over o. The four
// run subcommands nest: udp adds the reliable-stack and metric flags
// to lic's, goroutine adds the simulator hooks, and event adds the
// virtual-clock ones.
func newFlagSet(cmd string, o *options) (*flag.FlagSet, error) {
	fs := flag.NewFlagSet("overlaysim "+cmd, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	switch cmd {
	case "replay":
		return fs, nil
	case "event", "goroutine", "udp", "lic", "churn":
	default:
		return nil, fmt.Errorf("unknown subcommand %q", cmd)
	}
	fs.StringVar(&o.topology, "topology", "gnp", "gnp | geometric | ba | ws | ring | grid | complete | tree")
	fs.IntVar(&o.n, "n", 100, "number of peers")
	fs.Float64Var(&o.p, "p", 0.05, "edge probability (gnp)")
	fs.Float64Var(&o.radius, "radius", 0.15, "connection radius (geometric)")
	fs.IntVar(&o.mAttach, "m", 3, "attachments per node (ba)")
	fs.IntVar(&o.k, "k", 6, "lattice degree (ws, even)")
	fs.Float64Var(&o.beta, "beta", 0.2, "rewiring probability (ws)")
	fs.IntVar(&o.rows, "rows", 10, "rows (grid)")
	fs.IntVar(&o.quota, "b", 3, "connection quota per peer")
	fs.StringVar(&o.metric, "metric", "random", "random | symmetric | distance | resource | transactions")
	fs.Uint64Var(&o.seed, "seed", 1, "seed for topology, preferences and latencies")
	fs.StringVar(&o.workloadPath, "workload", "", "load a frozen workload JSON (see graphgen -format workload) instead of generating")
	fs.IntVar(&o.workers, "workers", 0, "goroutines for the deterministic parallel weight-table build (0 = GOMAXPROCS, 1 = serial; output is identical either way)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	if cmd == "churn" {
		fs.IntVar(&o.repairRounds, "repair-rounds", 0, "truncate each repair epoch after this many cascade rounds (0 = full budget)")
		fs.IntVar(&o.shedDepth, "shed-depth", 0, "shed epochs whose batch exceeds this to one-round backup placement (0 = never)")
		return fs, nil
	}

	fs.BoolVar(&o.verbose, "v", false, "print per-peer connections")
	fs.StringVar(&o.dotPath, "dot", "", "write the final overlay as Graphviz DOT to this file")
	if cmd == "lic" {
		return fs, nil
	}

	fs.BoolVar(&o.showMetrics, "metrics", false, "print the run's metric snapshot after the report")
	choice(fs, &o.metricsFormat, "metrics-format", "metric snapshot format", "text", "json", "prom")
	fs.Float64Var(&o.rto, "rto", 30, "retransmission timeout in virtual time units (reliable layer)")
	fs.BoolVar(&o.adaptiveRTO, "adaptive-rto", false, "RFC-6298 adaptive retransmission timeout with backoff (reliable layer)")
	fs.Func("detector", "heartbeat failure detector: off | on | hb=5,phi=8,... (default off; see internal/detector)",
		func(s string) (err error) { o.det, err = detector.Parse(s); return err })
	fs.Float64Var(&o.hbInterval, "hb-interval", 0, "heartbeat interval override in virtual time units (implies -detector on)")
	fs.Float64Var(&o.phiThreshold, "phi-threshold", 0, "phi suspicion threshold override (implies -detector on)")
	if cmd == "udp" {
		// A real datagram socket loses and reorders, so the reliable
		// layer is always on, as in overlaynode.
		o.reliable = true
		return fs, nil
	}

	fs.StringVar(&o.spansPath, "trace-spans", "", "write the causal span trace (Lamport clocks, protocol spans) to this file")
	choice(fs, &o.spansFormat, "trace-spans-format", "span trace format", "ndjson", "chrome", "tree")
	fs.Func("faults", "fault-injection spec, e.g. drop=0.1,dup=0.05,partition=20:60:0-9 (default off; see internal/faults)",
		func(s string) (err error) { o.faults, err = faults.Parse(s); return err })
	fs.Uint64Var(&o.faultsSeed, "faults-seed", 0, "seed of the injection stream (0 = derive from -seed)")
	fs.BoolVar(&o.reliable, "reliable", false, "wrap LID in the ack/retransmit substrate (required for drop/corrupt faults)")
	if cmd == "goroutine" {
		return fs, nil
	}

	fs.Float64Var(&o.jitter, "jitter", 3, "latency jitter scale")
	fs.Float64Var(&o.probeInterval, "probe-interval", 0, "virtual-time spacing of per-round stability probes (0 = off)")
	fs.Func("scheduler", "proposal admission order: canonical | greedy | greedy:batch=N (default canonical; same matching, fewer messages)",
		func(s string) (err error) { o.sched, err = lid.ParseSchedulerSpec(s); return err })
	return fs, nil
}
