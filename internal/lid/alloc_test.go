package lid

import (
	"runtime/debug"
	"testing"

	"overlaymatch/internal/gen"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
)

// allocSystem is a G(n, p) overlay with average degree 8 and quota 3,
// the shape of the pipeline benchmark.
func allocSystem(t *testing.T, n int) *pref.System {
	t.Helper()
	src := rng.New(uint64(n))
	s, err := pref.Build(gen.GNP(src, n, 8.0/float64(n-1)), pref.NewRandomMetric(src.Split()), pref.UniformQuota(3))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// pauseGC turns the collector off until the test ends: a cycle that
// starts inside a measured call adds runtime allocations of its own,
// which AllocsPerRun would charge to the call.
func pauseGC(t *testing.T) {
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// TestSetupAllocsIndependentOfN guards the flat carves: the first
// SortedNeighbors (the weight-list sort) and NewNodes together make the
// same number of allocations at n=1k and n=10k. A per-node allocation
// anywhere in either shows up as a 9k difference.
func TestSetupAllocsIndependentOfN(t *testing.T) {
	pauseGC(t)
	setupAllocs := func(n int) float64 {
		s := allocSystem(t, n)
		// AllocsPerRun(1, f) calls f twice; each call needs a fresh
		// table so that its SortedNeighbors is the first one.
		tbls := []*satisfaction.Table{satisfaction.NewTable(s), satisfaction.NewTable(s)}
		return testing.AllocsPerRun(1, func() {
			tbl := tbls[0]
			tbls = tbls[1:]
			tbl.SortedNeighbors(s, 0)
			NewNodes(s, tbl)
		})
	}
	small, large := setupAllocs(1000), setupAllocs(10000)
	if small != large {
		t.Fatalf("SortedNeighbors+NewNodes: %v allocations at n=1k, %v at n=10k", small, large)
	}
}

// TestRunEventAllocsIndependentOfMessages guards the delivery path: a
// canonical RunEvent at n=10k sends ~10x the messages of n=1k, yet may
// allocate only a few more times (the ring buffer doubles O(log depth)
// times) — nothing per message, per node or per Init.
func TestRunEventAllocsIndependentOfMessages(t *testing.T) {
	pauseGC(t)
	runAllocs := func(n int) (allocs float64, msgs int) {
		s := allocSystem(t, n)
		tbl := satisfaction.NewTable(s)
		tbl.SortedNeighbors(s, 0)
		allocs = testing.AllocsPerRun(2, func() {
			res, err := RunEvent(s, tbl, simnet.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			msgs = res.Stats.TotalSent()
		})
		return allocs, msgs
	}
	smallAllocs, smallMsgs := runAllocs(1000)
	largeAllocs, largeMsgs := runAllocs(10000)
	if largeMsgs < 5*smallMsgs {
		t.Fatalf("workloads too close: %d vs %d messages", smallMsgs, largeMsgs)
	}
	if largeAllocs > smallAllocs+16 {
		t.Fatalf("RunEvent: %v allocations for %d messages at n=1k, %v for %d at n=10k",
			smallAllocs, smallMsgs, largeAllocs, largeMsgs)
	}
	t.Logf("RunEvent allocations: %v (%d msgs) vs %v (%d msgs)", smallAllocs, smallMsgs, largeAllocs, largeMsgs)
}
