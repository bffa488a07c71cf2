package pref

import (
	"fmt"
	"math"

	"overlaymatch/internal/graph"
	"overlaymatch/internal/rng"
)

// Metric scores how suitable neighbor j looks to node i; higher is more
// desirable. Score is evaluated once per directed neighbor pair when a
// System is built, so implementations may be slow but must be
// deterministic for the lifetime of the build. A Metric models the
// node's private suitability function from the paper's introduction:
// nothing outside the node ever sees the scores, only the resulting
// ranks enter the protocol (via satisfaction increases).
type Metric interface {
	Score(i, j graph.NodeID) float64
}

// MetricFunc adapts a plain function to the Metric interface.
type MetricFunc func(i, j graph.NodeID) float64

// Score implements Metric.
func (f MetricFunc) Score(i, j graph.NodeID) float64 { return f(i, j) }

// DistanceMetric prefers nearby nodes: score is the negated Euclidean
// distance between stored coordinates. It models latency-driven
// preferences (e.g. the coordinates returned by gen.Geometric).
type DistanceMetric struct {
	Coords [][2]float64
}

// Score implements Metric.
func (m DistanceMetric) Score(i, j graph.NodeID) float64 {
	dx := m.Coords[i][0] - m.Coords[j][0]
	dy := m.Coords[i][1] - m.Coords[j][1]
	return -math.Sqrt(dx*dx + dy*dy)
}

// InterestMetric prefers nodes with similar interest vectors: score is
// the cosine similarity of the two nodes' interest vectors. It models
// content/interest-driven overlays. Zero vectors score 0 against
// everything.
type InterestMetric struct {
	Interests [][]float64
}

// Score implements Metric.
func (m InterestMetric) Score(i, j graph.NodeID) float64 {
	a, b := m.Interests[i], m.Interests[j]
	if len(a) != len(b) {
		panic(fmt.Sprintf("pref: interest vectors of %d and %d have different lengths", i, j))
	}
	var dot, na, nb float64
	for k := range a {
		dot += a[k] * b[k]
		na += a[k] * a[k]
		nb += b[k] * b[k]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// ResourceMetric prefers well-provisioned nodes: score is the target's
// advertised capacity (bandwidth, storage, compute). Every node ranks
// by the same capacities, which yields a globally acyclic preference
// system — the regime of Gai et al. [3].
type ResourceMetric struct {
	Capacity []float64
}

// Score implements Metric.
func (m ResourceMetric) Score(_, j graph.NodeID) float64 { return m.Capacity[j] }

// TransactionMetric prefers nodes with a good past-interaction balance:
// score is History[i][j] (e.g. bytes served minus bytes taken, or a
// reputation/recommendation score). Asymmetric by nature, so it readily
// produces the cyclic preference relations that break stabilization in
// prior work.
type TransactionMetric struct {
	History [][]float64
}

// Score implements Metric.
func (m TransactionMetric) Score(i, j graph.NodeID) float64 { return m.History[i][j] }

// binder is implemented by metrics that precompute their scores for a
// whole graph. Build and BuildParallel bind the metric to the graph
// they rank before scoring any pair.
type binder interface {
	bind(g *graph.Graph)
}

// RandomMetric gives every directed pair an independent uniform score,
// the harshest stress test for cyclic preferences. Scores are drawn
// once per pair, so a Metric value is deterministic.
//
// Bound to a graph by Build (or BuildParallel), a fresh RandomMetric
// draws the scores of all 2m directed neighbor pairs at once into
// slots laid out like the graph's CSR adjacency: slot
// IncidenceOffset(i)+k holds Score(i, Neighbors(i)[k]). The draw order
// is the order in which Build visits the pairs, i ascending and then
// Neighbors(i) order, which is slot order 0..2m−1; the scores are the
// ones a metric drawing each pair on first use would give. Score then
// finds a bound pair's slot with NeighborIndex. A pair off the bound
// graph, and every pair of a metric that has already drawn when it is
// first bound, falls back to a memo that draws on first use.
type RandomMetric struct {
	s randomScores[[2]graph.NodeID]
}

// NewRandomMetric returns a RandomMetric drawing from src.
func NewRandomMetric(src *rng.Source) *RandomMetric {
	return &RandomMetric{s: randomScores[[2]graph.NodeID]{src: src}}
}

func (m *RandomMetric) bind(g *graph.Graph) { m.s.bind(g, 2*g.NumEdges()) }

// Score implements Metric.
func (m *RandomMetric) Score(i, j graph.NodeID) float64 {
	if g := m.s.g; g != nil {
		if k, ok := g.NeighborIndex(i, j); ok {
			return m.s.slots[int(g.IncidenceOffset(i))+k]
		}
	}
	return m.s.memoized([2]graph.NodeID{i, j})
}

// SymmetricRandomMetric is RandomMetric with symmetric scores
// (score(i,j) = score(j,i)), modelling shared pairwise affinity such as
// measured round-trip time. Symmetric scores make the preference
// system acyclic in the pairwise sense of Gai et al. [3].
//
// Bound to a graph, a fresh SymmetricRandomMetric draws one score per
// edge, in the order of each edge's first visit in Build's walk (i
// ascending, then Neighbors(i) order). The first visit of {u,v}, u < v,
// is from u, so that order is the lexicographic edge order, which is
// EdgeID order: the scores go into one slot per EdgeID, found through
// EdgeIDOf (NeighborIndex plus the incidence list). The memo fallback
// is RandomMetric's.
type SymmetricRandomMetric struct {
	s randomScores[graph.Edge]
}

// NewSymmetricRandomMetric returns a SymmetricRandomMetric drawing from src.
func NewSymmetricRandomMetric(src *rng.Source) *SymmetricRandomMetric {
	return &SymmetricRandomMetric{s: randomScores[graph.Edge]{src: src}}
}

func (m *SymmetricRandomMetric) bind(g *graph.Graph) { m.s.bind(g, g.NumEdges()) }

// Score implements Metric.
func (m *SymmetricRandomMetric) Score(i, j graph.NodeID) float64 {
	if g := m.s.g; g != nil {
		if id, ok := g.EdgeIDOf(i, j); ok {
			return m.s.slots[id]
		}
	}
	return m.s.memoized(graph.Edge{U: i, V: j}.Normalize())
}

// randomScores is the draw store of the random metrics: the bound
// graph's scores in flat slots, drawn at bind, and a memo that draws
// every other key on first use.
type randomScores[K comparable] struct {
	src   *rng.Source
	g     *graph.Graph // the bound graph, nil until bind
	slots []float64
	memo  map[K]float64
}

// bind draws size slot scores for g, unless the store is already bound
// or has drawn into its memo (its draws would then come out of order).
func (r *randomScores[K]) bind(g *graph.Graph, size int) {
	if r.g != nil || len(r.memo) > 0 {
		return
	}
	r.g = g
	r.slots = make([]float64, size)
	for k := range r.slots {
		r.slots[k] = r.src.Float64()
	}
}

func (r *randomScores[K]) memoized(key K) float64 {
	v, ok := r.memo[key]
	if !ok {
		if r.memo == nil {
			r.memo = make(map[K]float64)
		}
		v = r.src.Float64()
		r.memo[key] = v
	}
	return v
}

// CompositeMetric blends several metrics with non-negative weights,
// modelling a peer that scores neighbors by, say, 0.7·distance +
// 0.3·reputation.
type CompositeMetric struct {
	Metrics []Metric
	Weights []float64
}

// Score implements Metric.
func (m CompositeMetric) Score(i, j graph.NodeID) float64 {
	if len(m.Metrics) != len(m.Weights) {
		panic("pref: CompositeMetric with mismatched metrics and weights")
	}
	var s float64
	for k, sub := range m.Metrics {
		s += m.Weights[k] * sub.Score(i, j)
	}
	return s
}

// PerNodeMetric gives each node its own private metric, the fully
// heterogeneous scenario of the paper's introduction where "every peer
// may follow an individually chosen metric".
type PerNodeMetric struct {
	ByNode []Metric
}

// Score implements Metric.
func (m PerNodeMetric) Score(i, j graph.NodeID) float64 { return m.ByNode[i].Score(i, j) }
