package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"overlaymatch/internal/matching"
)

// smallN keeps every workload's code path but runs in milliseconds.
var smallN = map[string]int{"pipeline-gnp": 600, "hetero-greedy": 600, "churn": 600, "udp-loopback": 24}

func smoke(t *testing.T, o options) *report {
	t.Helper()
	if o.n == 0 {
		o.n = smallN[o.workload]
	}
	rep, err := benchmark(o)
	if err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	return rep
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, name := range workloadNames {
		rep := smoke(t, options{workload: name, seed: 1})
		r := rep.result
		if !r.Correct || r.Failed != 0 || r.Attempted < 3 {
			t.Fatalf("%s: correct=%v failed=%d attempted=%d", name, r.Correct, r.Failed, r.Attempted)
		}
		for _, m := range endToEndMetrics {
			v, ok := r.Metrics[m.name]
			if !ok || !(v.Value > 0) || v.Unit != m.unit {
				t.Errorf("%s: metric %s = %+v, want a positive value in %s", name, m.name, v, m.unit)
			}
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	dir := t.TempDir()
	for _, name := range workloadNames {
		spans := filepath.Join(dir, name+".ndjson")
		rep := smoke(t, options{workload: name, seed: 3, trace: true, spans: spans})
		r := rep.result
		if !r.Correct || r.Failed != 0 {
			t.Fatalf("%s: correct=%v failed=%d", name, r.Correct, r.Failed)
		}
		for _, m := range perLayerMetrics {
			if _, ok := r.Metrics[m.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", name, m.name)
			}
		}
		// On the event workloads the traced run splits LID into its
		// stages; benchmark has already checked that the split run
		// reproduced the untraced run's fingerprint.
		if name != "churn" && r.Metrics["lid.prop"].Value == 0 {
			t.Errorf("%s: traced run recorded no LID proposals", name)
		}
		if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
			t.Errorf("%s: span file not written: %v", name, err)
		}
	}
}

// TestLayerSpansCoverTheRun checks that the layer spans cover the timed
// phases. What no layer span covers is bench.self_s; a layer call left
// out of the spans would land there, so one that takes a tenth of the
// run (workload.Build, simnet.Run) fails the test. The event and churn
// workloads run at ten times the smoke size, where the tracer's own
// MemStats reads are a small share of the total, and for a second, so
// that the median over traced iterations rides out a stray GC pause.
func TestLayerSpansCoverTheRun(t *testing.T) {
	const maxShare = 0.10
	for _, name := range workloadNames {
		n := 10 * smallN[name]
		if name == "udp-loopback" {
			n = smallN[name]
		}
		r := smoke(t, options{workload: name, seed: 3, trace: true, n: n, seconds: 1}).result
		self, total := r.Metrics["bench.self_s"].Value, r.Metrics["trace.traced_total_s"].Value
		t.Logf("%s: bench.self_s %.5fs of traced setup+run %.5fs (%.2f%%)", name, self, total, 100*self/total)
		if self > maxShare*total {
			t.Errorf("%s: bench.self_s %.5fs is more than %.0f%% of traced setup+run %.5fs", name, self, 100*maxShare, total)
		}
	}
}

// acceptAll is a scenario whose checker passes anything.
type acceptAll struct{ scenario }

func (acceptAll) check(*matching.Matching) error { return nil }

func TestNegativeControl(t *testing.T) {
	for _, name := range workloadNames {
		w, err := newWorkload(name, 1, smallN[name])
		if err != nil {
			t.Fatal(err)
		}
		_, out, err := iterate(w, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := w.check(out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := negativeControl(w, out); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if negativeControl(acceptAll{w}, out) == nil {
			t.Errorf("%s: the negative control passed a checker that accepts anything", name)
		}
	}
}

func TestPinnedFingerprintDriftFails(t *testing.T) {
	key := pinKey{"pipeline-gnp", 1, smallN["pipeline-gnp"]}
	pinned[key] = fingerprint{Edges: 1}
	defer delete(pinned, key)
	if r := smoke(t, options{workload: "pipeline-gnp", seed: 1}).result; r.Correct {
		t.Fatal("a run that drifted from its pinned fingerprint passed")
	}
}

func TestSeedDrivesEveryStream(t *testing.T) {
	fp := func(name string, seed uint64) fingerprint {
		w, err := newWorkload(name, seed, smallN[name])
		if err != nil {
			t.Fatal(err)
		}
		it, _, err := iterate(w, nil)
		if err != nil {
			t.Fatal(err)
		}
		return it.fp
	}
	for _, name := range []string{"pipeline-gnp", "hetero-greedy", "churn"} {
		if a, b := fp(name, 5), fp(name, 5); a != b {
			t.Errorf("%s: seed 5 gave %+v then %+v", name, a, b)
		}
		if a, b := fp(name, 5), fp(name, 6); a == b {
			t.Errorf("%s: seeds 5 and 6 gave the same outcome %+v", name, a)
		}
	}
}

// BENCHMARK.json and the command must name the same workloads and
// metrics with the same units.
func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the command", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the command", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s metric %d: %+v in BENCHMARK.json, %+v in the command", kind, i, got[i], m)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
}
