package pref

import (
	"runtime/debug"
	"testing"

	"overlaymatch/internal/gen"
	"overlaymatch/internal/graph"
	"overlaymatch/internal/rng"
)

// allocGraph is a G(n, p) overlay with average degree 8, the shape of
// the pipeline benchmark.
func allocGraph(n int) *graph.Graph {
	return gen.GNP(rng.New(uint64(n)), n, 8.0/float64(n-1))
}

// pauseGC turns the collector off until the test ends: a cycle that
// starts inside a measured call adds runtime allocations of its own,
// which AllocsPerRun would charge to the call.
func pauseGC(t *testing.T) {
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// TestBuildAllocsIndependentOfN guards the flat construction of Build
// with a fresh RandomMetric: scores in one slot array, lists carved
// from one buffer, one sort scratch, no memo map. It makes the same
// number of allocations at n=1k and n=10k; a per-node or per-pair
// allocation anywhere shows up as a difference of thousands.
func TestBuildAllocsIndependentOfN(t *testing.T) {
	pauseGC(t)
	buildAllocs := func(n int) float64 {
		g := allocGraph(n)
		return testing.AllocsPerRun(2, func() {
			if _, err := Build(g, NewRandomMetric(rng.New(1)), UniformQuota(3)); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := buildAllocs(1000), buildAllocs(10000)
	if small != large {
		t.Fatalf("Build: %v allocations at n=1k, %v at n=10k", small, large)
	}
	t.Logf("Build allocations: %v", small)
}

// TestFindPreferenceCycleAllocsConstant guards the acyclicity check on
// an acyclic system, where it visits every edge: its arc table, colors,
// parents and one DFS stack are a fixed number of allocations, the
// same at n=1k and n=10k.
func TestFindPreferenceCycleAllocsConstant(t *testing.T) {
	pauseGC(t)
	cycleAllocs := func(n int) float64 {
		s, err := Build(allocGraph(n), NewSymmetricRandomMetric(rng.New(2)), UniformQuota(3))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(2, func() {
			if c := FindPreferenceCycle(s); c != nil {
				t.Fatalf("symmetric system reported cyclic: %v", c)
			}
		})
	}
	small, large := cycleAllocs(1000), cycleAllocs(10000)
	if small != large || small > 8 {
		t.Fatalf("FindPreferenceCycle: %v allocations at n=1k, %v at n=10k", small, large)
	}
	t.Logf("FindPreferenceCycle allocations: %v", small)
}
