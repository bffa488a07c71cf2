package main

import (
	"fmt"
	"os"
	"sort"

	"overlaymatch/internal/dynamic"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/stats"
)

// runChurnReport streams a seeded membership feed through the
// churn-survival engine (internal/dynamic) and reports the repair
// epochs it produced: latency, bounded-region size, the certified
// blocking-edge bound, and the weight the configured budget kept
// relative to the live LIC under the inherited weight order.
func runChurnReport(sys *pref.System, opts options) {
	n := sys.Graph().NumNodes()
	eng, err := dynamic.NewEngine(sys, dynamic.EngineOptions{
		RepairRounds:     opts.repairRounds,
		ShedDepth:        opts.shedDepth,
		Workers:          opts.workers,
		MeasureStability: true,
	})
	if err != nil {
		fail("%v", err)
	}
	records, err := dynamic.RunEngineChurn(eng, opts.churn, opts.seed)
	if err != nil {
		fail("churn run: %v", err)
	}
	o := eng.Overlay()
	if err := o.Validate(); err != nil {
		fail("churn run left an invalid matching: %v", err)
	}

	budget := "full"
	if opts.repairRounds > 0 {
		budget = fmt.Sprintf("k=%d", opts.repairRounds)
	}
	fmt.Printf("churn: %s, budget %s, shed depth %d\n", opts.churn, budget, opts.shedDepth)

	table := stats.NewTable("repair epochs",
		"epoch", "t", "batch", "retries", "rounds", "trunc", "shed", "region",
		"examined", "added", "removed", "latency", "deferred", "blocking")
	var latencies []float64
	var regionSum, maxRegion int
	for _, r := range records {
		latencies = append(latencies, r.Latency())
		regionSum += r.Region
		maxRegion = max(maxRegion, r.Region)
		table.AddRowf(r.Epoch, fmt.Sprintf("%.2f", r.Start), r.Batch, r.Retries, r.Rounds,
			r.Truncated, r.Shed, r.Region, r.Stats.Examined, r.Stats.Added, r.Stats.Removed,
			fmt.Sprintf("%.2f", r.Latency()), r.Deferred, r.Blocking)
	}
	if err := table.WriteText(os.Stdout); err != nil {
		fail("%v", err)
	}
	fmt.Println()

	inherited := o.LiveLICInherited()
	inhWeight := inherited.Weight(o.System())
	weight := o.Matching().Weight(o.System())
	degradation := 1.0
	if inhWeight > 0 {
		degradation = weight / inhWeight
	}
	sort.Float64s(latencies)
	fmt.Printf("epochs %d  retries %d  sheds %d  alive %d/%d\n",
		len(records), eng.TotalRetries(), eng.TotalSheds(), o.NumAlive(), n)
	if len(latencies) > 0 {
		fmt.Printf("repair latency p50 %.2f  p99 %.2f  region mean %.1f max %d\n",
			stats.Percentile(latencies, 0.5), stats.Percentile(latencies, 0.99),
			float64(regionSum)/float64(len(records)), maxRegion)
	}
	fmt.Printf("deferred bound %d  blocking edges %d  weight/inherited-LIC %.4f\n",
		eng.DeferredBound(), o.BlockingEdges(), degradation)
	if healed := eng.Heal(); healed > 0 {
		fmt.Printf("heal: %d extra epochs to quiescence (blocking now %d)\n", healed, o.BlockingEdges())
	}
	if q, err := o.QualityRatio(); err == nil {
		fmt.Printf("quality vs fresh live-LIC (re-ranked): %.4f\n", q)
	}
}
