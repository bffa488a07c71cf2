package main

import (
	"strings"
	"time"
)

// perLayerMetrics are the traced run's figures, one set for every
// workload; a layer the workload bypasses reports 0.
var perLayerMetrics = []metric{
	{"gen.busy_s", "s"}, {"gen.allocs", "count"}, {"graph.edges", "count"},
	{"workload.build_s", "s"},
	{"pref.busy_s", "s"}, {"pref.allocs", "count"},
	{"satisfaction.table_s", "s"},
	{"satisfaction.sort_s", "s"}, {"satisfaction.sort_allocs", "count"}, {"satisfaction.sort_alloc_mb", "MB"},
	{"matching.lic_s", "s"}, {"matching.lic_allocs", "count"},
	{"lid.node_setup_s", "s"}, {"lid.node_allocs", "count"}, {"lid.node_alloc_mb", "MB"},
	{"lid.admitter_setup_s", "s"}, {"simnet.admission_batches", "count"},
	{"simnet.run_s", "s"}, {"simnet.deliveries", "count"}, {"simnet.deliveries_per_s", "1/s"},
	{"simnet.allocs", "count"}, {"simnet.rounds", "rounds"},
	{"lid.prop", "count"}, {"lid.rej", "count"}, {"lid.assemble_s", "s"}, {"lid.handler_s", "s"},
	{"dynamic.engine_setup_s", "s"}, {"dynamic.submit_busy_s", "s"}, {"dynamic.drain_s", "s"},
	{"dynamic.epochs", "count"}, {"dynamic.retries", "count"}, {"dynamic.region_mean", "count"},
	{"dynamic.prefix_skipped", "count"}, {"dynamic.deferred", "count"},
	{"dynamic.allocs_per_update", "count"}, {"dynamic.updates_per_s", "1/s"},
	{"dynamic.update_p50_us", "us"}, {"dynamic.update_p99_us", "us"}, {"dynamic.submit_p999_us", "us"},
	{"transport.setup_s", "s"}, {"transport.run_s", "s"},
	{"transport.frames_sent", "count"}, {"transport.datagrams_sent", "count"},
	{"transport.frames_per_datagram", "ratio"}, {"transport.bytes_sent", "B"},
	{"transport.wire_bytes_per_node", "B"}, {"transport.dropped", "count"},
	{"transport.quiesce_tail_s", "s"},
	{"reliable.data_frames", "count"}, {"reliable.acks", "count"}, {"reliable.retransmits", "count"},
	{"reliable.retx_ratio", "ratio"}, {"reliable.duplicates", "count"}, {"reliable.abandoned", "count"},
	{"bench.self_s", "s"}, {"gen.self_s", "s"}, {"workload.self_s", "s"}, {"pref.self_s", "s"},
	{"satisfaction.self_s", "s"}, {"matching.self_s", "s"}, {"lid.self_s", "s"},
	{"simnet.self_s", "s"}, {"dynamic.self_s", "s"}, {"transport.self_s", "s"},
	{"reliable.self_s", "s"},
	{"trace.traced_total_s", "s"}, {"trace.untraced_total_s", "s"},
	{"trace.overhead_s", "s"},
}

// spanMetrics derives per-layer figures from the span of the given
// name: its duration in seconds, its allocation count, or its
// allocated megabytes.
var spanMetrics = []struct{ metric, span, field string }{
	{"gen.busy_s", "gen.GNP", "s"}, {"gen.allocs", "gen.GNP", "allocs"},
	{"workload.build_s", "workload.Build", "s"},
	{"pref.busy_s", "pref.Build", "s"}, {"pref.allocs", "pref.Build", "allocs"},
	{"satisfaction.table_s", "satisfaction.NewTable", "s"},
	{"satisfaction.sort_s", "satisfaction.SortedNeighbors", "s"},
	{"satisfaction.sort_allocs", "satisfaction.SortedNeighbors", "allocs"},
	{"satisfaction.sort_alloc_mb", "satisfaction.SortedNeighbors", "mb"},
	{"matching.lic_s", "matching.LIC", "s"}, {"matching.lic_allocs", "matching.LIC", "allocs"},
	{"lid.node_setup_s", "lid.NewNodes", "s"}, {"lid.node_allocs", "lid.NewNodes", "allocs"},
	{"lid.node_alloc_mb", "lid.NewNodes", "mb"},
	{"lid.admitter_setup_s", "lid.NewGreedyAdmitter", "s"},
	{"simnet.run_s", "simnet.Run", "s"}, {"simnet.allocs", "simnet.Run", "allocs"},
	{"lid.assemble_s", "lid.BuildMatching", "s"},
	{"dynamic.engine_setup_s", "dynamic.NewEngine", "s"},
	{"dynamic.drain_s", "dynamic.Drain", "s"},
	{"transport.setup_s", "transport.NewLoopbackCluster", "s"},
	{"transport.run_s", "transport.Cluster.Run", "s"},
}

// perLayer aggregates the traced iterations: the median of each figure.
func perLayer(tr *tracer, traced, plain []iteration) map[string]float64 {
	rows := make([]map[string]float64, len(traced))
	for i, it := range traced {
		rows[i] = layerRow(tr.runSpans(it.id), it)
	}
	out := make(map[string]float64)
	for _, row := range rows {
		for k := range row {
			if _, done := out[k]; done {
				continue
			}
			vs := make([]float64, len(rows))
			for j, r := range rows {
				vs[j] = r[k]
			}
			out[k] = medianOf(vs)
		}
	}
	total := func(it iteration) float64 { return (it.setup + it.run).Seconds() }
	out["trace.traced_total_s"] = median(traced, total)
	out["trace.untraced_total_s"] = median(plain, total)
	out["trace.overhead_s"] = out["trace.traced_total_s"] - out["trace.untraced_total_s"]
	return out
}

// layerRow computes one traced iteration's per-layer figures.
func layerRow(spans []span, it iteration) map[string]float64 {
	row := make(map[string]float64, len(it.layer)+len(spanMetrics)+16)
	for k, v := range it.layer {
		row[k] = v
	}
	row["graph.edges"] = float64(it.fp.Edges)
	byName := make(map[string]span)
	for _, s := range spans {
		if _, ok := byName[s.Name]; !ok {
			byName[s.Name] = s
		}
	}
	for _, sm := range spanMetrics {
		s, ok := byName[sm.span]
		if !ok {
			continue
		}
		switch sm.field {
		case "s":
			row[sm.metric] = s.seconds()
		case "allocs":
			row[sm.metric] = float64(s.Allocs)
		case "mb":
			row[sm.metric] = float64(s.Bytes) / (1 << 20)
		}
	}
	if d := row["simnet.run_s"]; d > 0 {
		row["simnet.deliveries_per_s"] = row["simnet.deliveries"] / d
	}
	if len(it.lat) > 0 {
		var busy time.Duration
		for _, d := range it.lat {
			busy += d
		}
		row["dynamic.submit_busy_s"] = busy.Seconds()
		row["dynamic.updates_per_s"] = float64(len(it.lat)) / it.run.Seconds()
		row["dynamic.update_p50_us"] = percentileUS(it.lat, 0.50)
		row["dynamic.update_p99_us"] = percentileUS(it.lat, 0.99)
		row["dynamic.submit_p999_us"] = percentileUS(it.lat, 0.999)
		if s, ok := byName["dynamic.Submit"]; ok {
			row["dynamic.allocs_per_update"] = float64(s.Allocs) / float64(len(it.lat))
		}
	}
	for layer, v := range selfTimes(spans) {
		row[layer+".self_s"] = v
	}
	return row
}

// printLayers prints one traced iteration's span tree, the largest
// layer span, the share of the traced run no layer span covers, and the
// tracing overhead.
func (r *report) printLayers(tr *tracer, it iteration, layer map[string]float64) {
	spans := tr.runSpans(it.id)
	r.printf("span tree of traced iteration %d (duration, self, allocs, MB):", it.id)
	child := make(map[int]float64)
	depth := make(map[int]int)
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.seconds()
			depth[s.ID] = depth[s.Parent] + 1
		}
	}
	var largest span
	for _, s := range spans {
		r.printf("  %s%-*s %9.4fs %9.4fs %10d %9.1f", strings.Repeat("  ", depth[s.ID]),
			34-2*depth[s.ID], s.Name, s.seconds(), s.seconds()-child[s.ID], s.Allocs, float64(s.Bytes)/(1<<20))
		if s.Parent >= 0 && s.seconds() > largest.seconds() {
			largest = s
		}
	}
	r.printf("largest layer span: %s (%.4fs)", largest.Name, largest.seconds())
	r.printf("bench.self_s %.4fs of median traced setup+run %.4fs; untraced setup+run %.4fs; tracing overhead %+.4fs",
		layer["bench.self_s"], layer["trace.traced_total_s"], layer["trace.untraced_total_s"], layer["trace.overhead_s"])
}

// pinKey names a pinned fingerprint; n is the -n option, 0 for the
// default size.
type pinKey struct {
	workload string
	seed     uint64
	n        int
}

// pinned holds the exact outcomes for the default seed (1) and the
// second seed (2) at the default sizes. A run whose outcome drifts from
// these fails.
var pinned = map[pinKey]fingerprint{
	{"pipeline-gnp", 1, 0}:  {Edges: 400854, Matched: 135440, Weight: 68166.33656609191, Prop: 366587, Rej: 340708, Rounds: 10},
	{"pipeline-gnp", 2, 0}:  {Edges: 399902, Matched: 135467, Weight: 68151.24484888886, Prop: 366538, Rej: 339215, Rounds: 12},
	{"hetero-greedy", 1, 0}: {Edges: 399990, Matched: 88110, Weight: 45776.827728088196, Prop: 199630, Rej: 312506, Rounds: 1136},
	{"hetero-greedy", 2, 0}: {Edges: 399990, Matched: 88111, Weight: 45848.845545823235, Prop: 199964, Rej: 312427, Rounds: 1107},
	{"churn", 1, 0}:         {Edges: 400854, Matched: 135410, Weight: 68149.12302592836, Examined: 474744, Epochs: 18206, Retries: 1794},
	{"churn", 2, 0}:         {Edges: 399902, Matched: 135371, Weight: 68098.02474306869, Examined: 477008, Epochs: 18198, Retries: 1802},
	{"udp-loopback", 1, 0}:  {Edges: 1007, Matched: 349, Weight: 174.5450924075922},
	{"udp-loopback", 2, 0}:  {Edges: 1035, Matched: 343, Weight: 174.18852846213505},
}
