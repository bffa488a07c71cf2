package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"overlaymatch/internal/faults"
	"overlaymatch/internal/gen"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
)

func testSystem(t *testing.T) *pref.System {
	t.Helper()
	src := rng.New(5)
	g := gen.GNP(src, 12, 0.4)
	s, err := pref.Build(g, pref.NewRandomMetric(src.Split()), pref.UniformQuota(2))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLatencyHelper(t *testing.T) {
	if latency(0) == nil || latency(-1) == nil || latency(2) == nil {
		t.Fatal("latency returned nil")
	}
	if got := latency(0)(0, 1, nil); got != 1 {
		t.Fatalf("zero-jitter latency = %v, want unit", got)
	}
}

func TestFillHelper(t *testing.T) {
	s := testSystem(t)
	if f := fill(s, matching.New(s.Graph().NumNodes())); f != 0 {
		t.Fatalf("empty fill = %v", f)
	}
}

// run parses args as the command line and runs it on the test
// system, the way main does once the workload is loaded.
func run(t *testing.T, args ...string) {
	t.Helper()
	cmd, o, err := parseArgs(args)
	if err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	runAndReport(cmd, testSystem(t), o)
}

// capture returns what fn prints to stdout.
func capture(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	defer func() {
		os.Stdout = stdout
	}()
	fn()
	w.Close()
	return string(<-out)
}

func TestRunAndReportAllRuntimes(t *testing.T) {
	for _, cmd := range []string{"event", "goroutine", "udp", "lic"} {
		run(t, cmd, "-seed", "1")
	}
	run(t, "event", "-seed", "1", "-jitter", "2")
}

// TestLIDCountersOnEveryPath: every LID run publishes the lid_*
// protocol counters under -metrics, whichever runtime carried it and
// whichever layers wrap it.
func TestLIDCountersOnEveryPath(t *testing.T) {
	for _, args := range [][]string{
		{"event"},
		{"event", "-reliable", "-detector", "on"},
		{"goroutine"},
		{"goroutine", "-reliable", "-detector", "on"},
		{"udp"},
	} {
		out := capture(t, func() { run(t, append(args, "-seed", "3", "-metrics")...) })
		for _, name := range []string{"lid_prop_total", "lid_runs_total"} {
			if !strings.Contains(out, name) {
				t.Errorf("%q -metrics: no %s in the snapshot", args, name)
			}
		}
	}
}

func TestRunAndReportArtifacts(t *testing.T) {
	dir := t.TempDir()
	dot := filepath.Join(dir, "overlay.dot")
	spans := filepath.Join(dir, "spans.tree")
	run(t, "event", "-seed", "2", "-jitter", "1", "-v", "-dot", dot,
		"-trace-spans", spans, "-trace-spans-format", "tree")
	dotData, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(dotData, []byte("graph overlay {")) {
		t.Fatal("dot output malformed")
	}
	spanData, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(spanData, []byte("PROP")) {
		t.Fatal("span tree missing PROP records")
	}
}

// spanRecords runs the command line args with -trace-spans in NDJSON
// and returns the decoded records.
func spanRecords(t *testing.T, args ...string) []map[string]any {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spans.ndjson")
	run(t, append(args, "-trace-spans", path, "-trace-spans-format", "ndjson")...)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []map[string]any
	for i, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("record %d invalid: %v (%s)", i, err, line)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestTraceLogOnGoroutineRuntime: the span trace log (-trace-spans)
// must capture the PROP deliveries of a -runtime goroutine run too,
// not only the event runtime's.
func TestTraceLogOnGoroutineRuntime(t *testing.T) {
	props := 0
	for _, rec := range spanRecords(t, "goroutine", "-seed", "4") {
		if rec["type"] == "deliver" && rec["kind"] == "PROP" {
			props++
		}
	}
	if props == 0 {
		t.Fatal("goroutine span trace has no PROP deliveries")
	}
}

// TestTraceNDJSONFormat: -trace-spans-format ndjson writes one record
// per line with a record-order sequence number.
func TestTraceNDJSONFormat(t *testing.T) {
	recs := spanRecords(t, "event", "-seed", "5", "-jitter", "1")
	if len(recs) == 0 {
		t.Fatal("empty span trace")
	}
	for i, rec := range recs {
		if seq, ok := rec["seq"].(float64); !ok || int(seq) != i {
			t.Fatalf("record %d has seq %v", i, rec["seq"])
		}
	}
}

func TestRunAndReportWithMetrics(t *testing.T) {
	for _, cmd := range []string{"event", "goroutine"} {
		for _, format := range []string{"text", "json", "prom"} {
			run(t, cmd, "-seed", "6", "-metrics", "-metrics-format", format)
		}
	}
}

func TestRunWorkloadFile(t *testing.T) {
	s := testSystem(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "wl.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pref.WriteJSON(f, s); err != nil {
		t.Fatal(err)
	}
	f.Close()
	cmd, o, err := parseArgs([]string{"lic", "-seed", "3", "-workload", path})
	if err != nil {
		t.Fatal(err)
	}
	runAndReport(cmd, loadSystem(o), o)
}

func TestRunAndReportWithFaults(t *testing.T) {
	for _, cmd := range []string{"event", "goroutine"} {
		run(t, cmd, "-seed", "4", "-faults", "drop=0.1,dup=0.05,corrupt=0.03,delay=0.1,delayscale=4",
			"-faults-seed", "99", "-reliable")
	}
	// Delivery-preserving faults on bare LID, no transport.
	run(t, "event", "-seed", "4", "-jitter", "1", "-faults", "delay=0.3,delayscale=8", "-faults-seed", "7")
}

func TestRunReplayFile(t *testing.T) {
	// Freeze a real violation (bare LID under duplication) and drive
	// the replay subcommand with it.
	w := faults.WorkloadSpec{Topology: "gnp", Metric: "random", N: 24, B: 2, Seed: 9}
	sys, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	spec := faults.Spec{Dup: 0.3}
	rep := faults.Explore(faults.ExploreOptions{
		Spec: spec, BaseSeed: 1, Count: 60, Workers: 4, MaxViolations: 1,
	}, faults.LIDTrial(sys, faults.TrialOptions{Reliable: false}))
	if len(rep.Violations) == 0 {
		t.Fatal("no violation to freeze")
	}
	v := rep.Violations[0]
	rf := &faults.ReplayFile{
		Version:  faults.ReplayVersion,
		Workload: w,
		Seed:     v.Seed,
		Spec:     spec.String(),
		Err:      v.Err,
		Events:   v.Events,
	}
	path := filepath.Join(t.TempDir(), "violation.replay.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rf.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	cmd, o, err := parseArgs([]string{"replay", path})
	if err != nil || cmd != "replay" || o.replayPath != path {
		t.Fatalf("replay %s parsed as %q %q, %v", path, cmd, o.replayPath, err)
	}
	runReplayFile(o.replayPath) // exits non-zero if the violation fails to reproduce
}
