package pref

import (
	"slices"

	"overlaymatch/internal/graph"
	"overlaymatch/internal/par"
)

// BuildParallel is Build with the per-node scoring and sorting fanned
// out over `workers` goroutines (0 = GOMAXPROCS). The result is
// bit-identical to Build for the same inputs.
//
// The metric MUST be safe for concurrent use once bound: pure
// functions and the value metrics (DistanceMetric, InterestMetric,
// ResourceMetric, TransactionMetric, compositions of these) qualify. A
// fresh RandomMetric or SymmetricRandomMetric qualifies too, because
// binding draws every score the build reads before any worker starts
// and Score then only reads its slots. One that has already drawn
// before the build, or one wrapped in a composite (which is never
// bound), draws lazily into its memo and does NOT qualify — use Build
// for those.
//
// Building preferences is the one super-linear step of overlay setup
// (Σ deg·log deg scoring and sorting); at 10⁵+ peers it dominates, and
// it is embarrassingly parallel per node.
func BuildParallel(g *graph.Graph, metric Metric, quota func(i graph.NodeID) int, workers int) (*System, error) {
	if b, ok := metric.(binder); ok {
		b.bind(g)
	}
	workers = par.Workers(workers)
	n := g.NumNodes()
	lists := make([][]graph.NodeID, n)
	quotas := make([]int, n)
	buf := make([]graph.NodeID, 2*g.NumEdges())
	maxDeg := g.MaxDegree()
	forEachChunk(n, workers, func(lo, hi int) {
		scratch := make([]scored, 0, maxDeg)
		for i := lo; i < hi; i++ {
			lists[i] = rankedNeighbors(g, metric, i, buf, scratch)
			quotas[i] = quota(i)
		}
	})
	return fromOwnedLists(g, lists, quotas, workers)
}

// forEachNode and forEachChunk are the package's historical names for
// the shared shard/join primitives, now hosted in internal/par (node
// work here is uniform enough that contiguous ranges beat a work
// channel; per-worker scratch goes at the top of a chunk fn).
func forEachNode(n, workers int, fn func(i int)) { par.ForEachIndex(n, workers, fn) }

func forEachChunk(n, workers int, fn func(lo, hi int)) { par.ForEachChunk(n, workers, fn) }

// scored is one neighbor with its score, the sort key of
// rankedNeighbors.
type scored struct {
	id    graph.NodeID
	score float64
}

// rankedNeighbors scores and sorts node i's neighborhood into its CSR
// slot of buf and returns that slot as i's list (nil for an isolated
// node). Scores are sorted as (score, id) pairs in scratch, which must
// have capacity for deg(i) — map lookups inside the sort comparator
// were the profiled hot spot of overlay setup.
func rankedNeighbors(g *graph.Graph, metric Metric, i graph.NodeID, buf []graph.NodeID, scratch []scored) []graph.NodeID {
	neigh := g.Neighbors(i)
	if len(neigh) == 0 {
		return nil
	}
	pairs := scratch[:len(neigh)]
	for k, j := range neigh {
		pairs[k] = scored{id: j, score: metric.Score(i, j)}
	}
	slices.SortFunc(pairs, func(a, b scored) int {
		switch {
		case a.score > b.score:
			return -1
		case a.score < b.score:
			return 1
		case a.id < b.id:
			return -1
		case a.id > b.id:
			return 1
		}
		return 0
	})
	off := int(g.IncidenceOffset(i))
	list := buf[off : off+len(neigh) : off+len(neigh)]
	for k, p := range pairs {
		list[k] = p.id
	}
	return list
}
