package gen

import (
	"runtime/debug"
	"testing"

	"overlaymatch/internal/rng"
)

// TestGNPAllocsIndependentOfN guards the generator and the builder
// behind it: the edge list is sized once from the expected edge count,
// the builder takes it in emission order (already sorted) and builds
// no duplicate set, so G(n, p) with average degree 8 allocates equally
// often at n=1k and n=10k. A per-node or per-edge allocation, or an
// edge list grown by append, shows up as a difference.
func TestGNPAllocsIndependentOfN(t *testing.T) {
	old := debug.SetGCPercent(-1) // a GC cycle inside a call would be charged to it
	defer debug.SetGCPercent(old)
	gnpAllocs := func(n int) float64 {
		return testing.AllocsPerRun(2, func() {
			GNP(rng.New(uint64(n)), n, 8.0/float64(n-1))
		})
	}
	small, large := gnpAllocs(1000), gnpAllocs(10000)
	if small != large {
		t.Fatalf("GNP: %v allocations at n=1k, %v at n=10k", small, large)
	}
	t.Logf("GNP allocations: %v", small)
}
