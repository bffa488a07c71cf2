// Command perfbench is the repository benchmark. One process runs one
// workload for a fixed time and prints its metrics as a JSON object on
// the last line of standard output:
//
//	go run . -workload pipeline-gnp -seed 1 -seconds 25 -trace 0
//
// perfbench/run.py builds this command from source and runs it the same
// way; BENCHMARK.json at the repository root lists the workloads and the
// metrics with their bounds.
//
// Inputs come from the seed alone. Each iteration sets up (timed) and
// runs (timed) the workload; then, with the clock stopped, its output is
// checked against the reference and its exact counts against the first
// iteration's (and, for seeds 1 and 2, against pinned values). The
// reported figures are medians over the iterations. With -trace 0 the
// metrics are the end-to-end ones:
//
//	setup_s        set-up time: gen+pref+table (pipeline-gnp), workload.Build+table
//	               (hetero-greedy), dynamic.NewEngine (churn), sockets+stack (udp-loopback)
//	run_s          run time: LIC+LID (event workloads), Submit loop+Drain (churn),
//	               Cluster.Run to quiescence+BuildMatching (udp-loopback)
//	edges_per_s    instance edges / (setup_s + run_s), per iteration
//	converge_s     the LID call (event workloads), Submit loop+Drain (churn),
//	               Cluster.Run start to the last LID handler return (udp-loopback)
//	msgs_per_node  frames sent / n; on churn, candidate edges examined by repair / n
//	peak_rss_mb    peak resident set size of one iteration, which starts
//	               from the inputs alone
//
// Figures only some workloads have (per-update latency on churn, rounds,
// wire bytes) and failed_frac are printed above the JSON. With -trace 1
// the process alternates untraced and traced iterations and reports
// per-layer figures from spans recorded around the calls into each
// layer, the layers' self times and the tracing overhead.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"overlaymatch/internal/matching"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	n        int    // instance size, 0 = the workload's default (tests shrink it)
	spans    string // NDJSON path for the traced run's spans
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, " | "))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; every generator stream derives from it")
	flag.Float64Var(&o.seconds, "seconds", 25, "measure for this long (at least a few iterations run)")
	flag.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	flag.StringVar(&o.spans, "spans", "", "write the traced run's spans here as NDJSON")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	rep, err := benchmark(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range rep.lines {
		fmt.Println(line)
	}
	out, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type report struct {
	result result
	lines  []string // human-readable lines printed before the JSON
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// benchmark builds the inputs, runs iterations until the time is up,
// checks every output, runs the negative control on the first checked
// output and aggregates.
func benchmark(o options) (*report, error) {
	w, err := newWorkload(o.workload, o.seed, o.n)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	minIters := 3
	if o.trace {
		tr = newTracer()
		minIters = 4 // two untraced, two traced
	}
	pin, hasPin := pinned[pinKey{o.workload, o.seed, o.n}]

	var plain, traced []iteration
	rep := &report{}
	attempted, failed := 0, 0
	var first *fingerprint
	controlErr := errors.New("negative control not run: no iteration passed")
	start := time.Now()
	for i := 0; i < minIters || time.Since(start).Seconds() < o.seconds; i++ {
		var t *tracer
		if o.trace && i%2 == 1 {
			tr.run = i
			t = tr
		}
		it, out, err := iterate(w, t)
		it.id = i
		if err == nil {
			err = w.check(out)
		}
		attempted += 1 + it.ops
		failed += it.opsFailed
		if err == nil && first != nil && it.fp != *first {
			err = fmt.Errorf("fingerprint %+v differs from the first iteration's %+v", it.fp, *first)
		}
		if err == nil && first == nil && hasPin && it.fp != pin {
			err = fmt.Errorf("fingerprint %+v differs from the pinned %+v", it.fp, pin)
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s iteration %d failed: %v\n", o.workload, i, err)
			continue
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s iteration %d traced=%v setup %.4fs run %.4fs\n",
			o.workload, i, t != nil, it.setup.Seconds(), it.run.Seconds())
		if first == nil {
			fp := it.fp
			first = &fp
			// The scenario still holds this iteration's reference; the
			// next iterate releases it.
			controlErr = negativeControl(w, out)
		}
		if t != nil {
			traced = append(traced, it)
		} else {
			plain = append(plain, it)
		}
	}
	correct := failed == 0 && len(plain) > 0
	if controlErr != nil {
		correct = false
		fmt.Fprintln(os.Stderr, "perfbench:", controlErr)
	}
	if first != nil {
		rep.printf("fingerprint %s seed %d: %+v", o.workload, o.seed, *first)
	}
	rep.result = result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	if len(plain) == 0 {
		return rep, nil // nothing to measure; the result reports the failures
	}
	e2e := endToEnd(plain)
	rep.printEndToEnd(o.workload, e2e, plain, attempted, failed)
	if !o.trace {
		rep.result.Metrics = pick(e2e, endToEndMetrics)
		return rep, nil
	}
	if len(traced) == 0 {
		return rep, nil
	}
	layer := perLayer(tr, traced, plain)
	rep.printLayers(tr, traced[0], layer)
	rep.result.Metrics = pick(layer, perLayerMetrics)
	if o.spans != "" {
		if err := tr.write(o.spans); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// iterate runs one setup and one run, then, with the clock stopped,
// collects the run's matching and fingerprint. First the scenario drops
// what the previous iteration built, and the heap is collected and its
// free pages returned to the OS, so each iteration starts from the state
// of a fresh process that holds only the inputs: no earlier garbage is
// charged to its timers, and its peak RSS is its own (the kernel's peak
// mark is reset, then read when the run ends).
func iterate(w scenario, t *tracer) (iteration, *matching.Matching, error) {
	w.reset()
	debug.FreeOSMemory()
	resetPeakRSS()
	it := iteration{layer: make(map[string]float64)}
	t.begin("bench.setup")
	t0 := time.Now()
	err := w.setup(t)
	it.setup = time.Since(t0)
	t.end()
	if err != nil {
		return it, nil, fmt.Errorf("setup: %w", err)
	}
	t.begin("bench.run")
	t0 = time.Now()
	err = w.run(t, &it)
	it.run = time.Since(t0)
	t.end()
	it.rssMB = peakRSSMB()
	if err != nil {
		return it, nil, fmt.Errorf("run: %w", err)
	}
	m, sys := w.output(&it)
	it.nodes = sys.Graph().NumNodes()
	it.fp.Edges = sys.Graph().NumEdges()
	it.fp.Matched = m.Size()
	it.fp.Weight = m.Weight(sys)
	return it, m, nil
}

// negativeControl feeds the checker a corrupted copy of an output it
// accepted; the checker must reject it.
func negativeControl(w scenario, good *matching.Matching) error {
	bad, err := corruptMatching(good)
	if err != nil {
		return err
	}
	if w.check(bad) == nil {
		return fmt.Errorf("negative control: the checker accepted a corrupted matching")
	}
	return nil
}

// metric names a reported figure and its unit.
type metric struct{ name, unit string }

// endToEndMetrics are the figures a user sees, reported on every
// workload from the untraced iterations. Their bounds live in
// BENCHMARK.json.
var endToEndMetrics = []metric{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"edges_per_s", "1/s"},
	{"converge_s", "s"},
	{"msgs_per_node", "msgs"},
	{"peak_rss_mb", "MB"},
}

func endToEnd(its []iteration) map[string]float64 {
	return map[string]float64{
		"setup_s": median(its, func(it iteration) float64 { return it.setup.Seconds() }),
		"run_s":   median(its, func(it iteration) float64 { return it.run.Seconds() }),
		"edges_per_s": median(its, func(it iteration) float64 {
			return float64(it.fp.Edges) / (it.setup + it.run).Seconds()
		}),
		"converge_s":    median(its, func(it iteration) float64 { return it.converge.Seconds() }),
		"msgs_per_node": median(its, func(it iteration) float64 { return it.msgs / float64(it.nodes) }),
		"peak_rss_mb":   median(its, func(it iteration) float64 { return it.rssMB }),
	}
}

// printEndToEnd prints every end-to-end figure of the workload by name
// and unit, including the workload-specific ones that are not in the
// JSON because they do not exist on every workload.
func (r *report) printEndToEnd(name string, e2e map[string]float64, its []iteration, attempted, failed int) {
	r.printf("%s: %d untraced iterations", name, len(its))
	for _, m := range endToEndMetrics {
		r.printf("  %-22s %14.6g %s", m.name, e2e[m.name], m.unit)
	}
	specific := workloadSpecific(its)
	for _, k := range sortedKeys(specific) {
		r.printf("  %-22s %14.6g %s", k, specific[k].Value, specific[k].Unit)
	}
	r.printf("  %-22s %14.6g ratio (%d of %d operations)", "failed_frac", float64(failed)/float64(attempted), failed, attempted)
}

// workloadSpecific returns the end-to-end figures that only some
// workloads have: per-update latency and throughput on churn, virtual
// rounds on the event workloads, wire bytes on udp-loopback.
func workloadSpecific(its []iteration) map[string]metricValue {
	out := make(map[string]metricValue)
	if len(its[0].lat) > 0 {
		out["updates_per_s"] = metricValue{median(its, func(it iteration) float64 {
			return float64(len(it.lat)) / it.run.Seconds()
		}), "1/s"}
		out["update_p50_us"] = metricValue{median(its, func(it iteration) float64 { return percentileUS(it.lat, 0.50) }), "us"}
		out["update_p99_us"] = metricValue{median(its, func(it iteration) float64 { return percentileUS(it.lat, 0.99) }), "us"}
	}
	if its[0].fp.Rounds > 0 {
		out["rounds"] = metricValue{its[0].fp.Rounds, "rounds"}
	}
	if _, ok := its[0].layer["transport.wire_bytes_per_node"]; ok {
		out["wire_bytes_per_node"] = metricValue{median(its, func(it iteration) float64 {
			return it.layer["transport.wire_bytes_per_node"]
		}), "B"}
	}
	return out
}

// pick selects the listed metrics, filling absent ones with 0 (a layer
// the workload bypasses).
func pick(vals map[string]float64, list []metric) map[string]metricValue {
	out := make(map[string]metricValue, len(list))
	for _, m := range list {
		out[m.name] = metricValue{vals[m.name], m.unit}
	}
	return out
}

// median returns the median of f over the iterations.
func median(its []iteration, f func(iteration) float64) float64 {
	vs := make([]float64, len(its))
	for i, it := range its {
		vs[i] = f(it)
	}
	return medianOf(vs)
}

func medianOf(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentileUS returns the nearest-rank q-quantile in microseconds.
func percentileUS(ds []time.Duration, q float64) float64 {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	k = max(0, min(k, len(s)-1))
	return float64(s[k]) / 1e3
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// resetPeakRSS resets the kernel's peak-RSS mark (VmHWM) to the current
// RSS. Where /proc/self/clear_refs is not writable the mark is not reset
// and peakRSSMB reports the process's peak so far, still a peak RSS.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
