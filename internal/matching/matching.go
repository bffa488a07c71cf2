// Package matching implements many-to-many matchings on preference
// systems: the Matching container with the paper's feasibility
// constraints (§2: at most bi connections per node, only graph edges),
// the centralized LIC algorithm (§6, Algorithm 2) in both its
// literal locally-heaviest form and the equivalent sorted-scan form,
// exact branch-and-bound oracles for the maximum-weight and
// maximum-satisfaction objectives (the OPT comparators of Theorems 2
// and 3), and the baseline strategies the experiment suite compares
// against.
package matching

import (
	"fmt"
	"math/bits"
	"sort"

	"overlaymatch/internal/graph"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
)

// Matching is a set of selected edges ("connections") over a graph,
// tracked per node. The zero value is unusable; use New or NewDense.
//
// Two representations share one API. The sparse form (New) keeps only
// the per-node connection slices — membership scans conns[u], which is
// bounded by the quota and so effectively constant. The dense form
// (NewDense) additionally keeps an EdgeID-indexed bitset over a known
// graph, giving O(log deg) membership and edge enumeration straight in
// canonical order. Both forms present identical observable behavior;
// Edges() iterates in canonical lexicographic order either way.
type Matching struct {
	n     int
	size  int
	conns [][]graph.NodeID

	g    *graph.Graph // nil in sparse mode
	bits []uint64     // EdgeID bitset, dense mode only
}

// New returns an empty matching over n nodes in sparse mode, for
// assemblies that know only the node count (e.g. collecting protocol
// outcomes).
func New(n int) *Matching {
	return &Matching{
		n:     n,
		conns: make([][]graph.NodeID, n),
	}
}

// NewDense returns an empty matching bound to g, backed by a dense
// EdgeID bitset. Algorithms that hold the graph use this form: Add and
// Has run off the CSR edge index with no hashing and no per-edge map
// entries.
func NewDense(g *graph.Graph) *Matching {
	return &Matching{
		n:     g.NumNodes(),
		conns: make([][]graph.NodeID, g.NumNodes()),
		g:     g,
		bits:  make([]uint64, (g.NumEdges()+63)/64),
	}
}

// NumNodes returns the number of nodes the matching ranges over.
func (m *Matching) NumNodes() int { return m.n }

// Size returns the number of selected edges.
func (m *Matching) Size() int { return m.size }

// Has reports whether edge {u,v} is selected.
func (m *Matching) Has(u, v graph.NodeID) bool {
	if m.g != nil {
		id, ok := m.g.EdgeIDOf(u, v)
		return ok && m.bits[id>>6]&(1<<(id&63)) != 0
	}
	if u < 0 || u >= m.n {
		return false
	}
	for _, x := range m.conns[u] {
		if x == v {
			return true
		}
	}
	return false
}

// Add selects edge {u,v}. It panics on self loops, out-of-range nodes,
// or already-selected edges: algorithms are expected to know what they
// add. In dense mode it also panics on non-graph edges, which Validate
// would reject later anyway.
func (m *Matching) Add(u, v graph.NodeID) {
	if u < 0 || u >= m.n || v < 0 || v >= m.n {
		panic(fmt.Sprintf("matching: edge (%d,%d) out of range [0,%d)", u, v, m.n))
	}
	if u == v {
		panic(fmt.Sprintf("matching: self loop at %d", u))
	}
	if m.g != nil {
		id, ok := m.g.EdgeIDOf(u, v)
		if !ok {
			panic(fmt.Sprintf("matching: edge (%d,%d) is not a graph edge", u, v))
		}
		if m.bits[id>>6]&(1<<(id&63)) != 0 {
			panic(fmt.Sprintf("matching: edge %v selected twice", graph.Edge{U: u, V: v}.Normalize()))
		}
		m.bits[id>>6] |= 1 << (id & 63)
	} else if m.Has(u, v) {
		panic(fmt.Sprintf("matching: edge %v selected twice", graph.Edge{U: u, V: v}.Normalize()))
	}
	m.size++
	m.conns[u] = append(m.conns[u], v)
	m.conns[v] = append(m.conns[v], u)
}

// NewReserved returns an empty sparse matching over n nodes whose
// connection slices are carved from one flat array, capOf(i) slots for
// node i: Adds within those bounds never allocate, and an Add beyond a
// bound reallocates only that node's slice. Protocol assemblies that
// already know every node's final degree use it.
func NewReserved(n int, capOf func(i int) int) *Matching {
	m := New(n)
	m.carve(capOf)
	return m
}

// preallocate sizes every connection slice to its feasibility bound
// min(quota, degree), so subsequent Adds never reallocate. Dense mode
// only; callers must hold the system the matching will be filled under.
func (m *Matching) preallocate(s *pref.System) {
	m.carve(func(i int) int { return min(s.Quota(i), m.g.Degree(i)) })
}

// carve points conns[i] at its own capOf(i)-slot region of one flat
// backing array.
func (m *Matching) carve(capOf func(i int) int) {
	total := 0
	for i := 0; i < m.n; i++ {
		total += capOf(i)
	}
	buf := make([]graph.NodeID, total)
	for i := 0; i < m.n; i++ {
		c := capOf(i)
		m.conns[i], buf = buf[:0:c], buf[c:]
	}
}

// addEdgeID is Add for dense-mode callers that already hold the edge's
// id and endpoints (skipping the id lookup and the double-selection
// check — the algorithms in this package add each edge at most once).
func (m *Matching) addEdgeID(id graph.EdgeID, e graph.Edge) {
	m.bits[id>>6] |= 1 << (id & 63)
	m.size++
	m.conns[e.U] = append(m.conns[e.U], e.V)
	m.conns[e.V] = append(m.conns[e.V], e.U)
}

// Remove deselects edge {u,v}. It panics if the edge is not selected.
func (m *Matching) Remove(u, v graph.NodeID) {
	if !m.Has(u, v) {
		panic(fmt.Sprintf("matching: removing unselected edge %v", graph.Edge{U: u, V: v}.Normalize()))
	}
	if m.g != nil {
		id, _ := m.g.EdgeIDOf(u, v)
		m.bits[id>>6] &^= 1 << (id & 63)
	}
	m.size--
	m.conns[u] = removeOne(m.conns[u], v)
	m.conns[v] = removeOne(m.conns[v], u)
}

func removeOne(s []graph.NodeID, x graph.NodeID) []graph.NodeID {
	for i, v := range s {
		if v == x {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	panic(fmt.Sprintf("matching: connection list inconsistent, %d missing", x))
}

// Connections returns the nodes matched to i, sorted ascending. The
// result is freshly allocated.
func (m *Matching) Connections(i graph.NodeID) []graph.NodeID {
	out := append([]graph.NodeID(nil), m.conns[i]...)
	sort.Ints(out)
	return out
}

// DegreeOf returns the number of connections node i holds (ci).
func (m *Matching) DegreeOf(i graph.NodeID) int { return len(m.conns[i]) }

// Edges returns the selected edges in canonical sorted order. Dense
// mode walks the bitset — ascending EdgeID is exactly canonical order;
// sparse mode collects each node's higher-numbered connections.
func (m *Matching) Edges() []graph.Edge {
	out := make([]graph.Edge, 0, m.size)
	if m.g != nil {
		for w, word := range m.bits {
			for ; word != 0; word &= word - 1 {
				id := graph.EdgeID(w<<6 + bits.TrailingZeros64(word))
				out = append(out, m.g.EdgeByID(id))
			}
		}
		return out
	}
	for u := 0; u < m.n; u++ {
		start := len(out)
		for _, v := range m.conns[u] {
			if v > u {
				out = append(out, graph.Edge{U: u, V: v})
			}
		}
		tail := out[start:]
		sort.Slice(tail, func(i, j int) bool { return tail[i].V < tail[j].V })
	}
	return out
}

// Clone returns a deep copy (same representation, same graph binding).
func (m *Matching) Clone() *Matching {
	var c *Matching
	if m.g != nil {
		c = NewDense(m.g)
	} else {
		c = New(m.n)
	}
	for _, e := range m.Edges() {
		c.Add(e.U, e.V)
	}
	return c
}

// Equal reports whether two matchings select exactly the same edges,
// regardless of representation.
func (m *Matching) Equal(o *Matching) bool {
	if m.n != o.n || m.size != o.size {
		return false
	}
	if m.g != nil && m.g == o.g {
		for w, word := range m.bits {
			if word != o.bits[w] {
				return false
			}
		}
		return true
	}
	for u := 0; u < m.n; u++ {
		if len(m.conns[u]) != len(o.conns[u]) {
			return false
		}
	}
	for u := 0; u < m.n; u++ {
		for _, v := range m.conns[u] {
			if v > u && !o.Has(u, v) {
				return false
			}
		}
	}
	return true
}

// Validate checks feasibility against a preference system: every
// selected edge must be a graph edge and every node must respect its
// quota.
func (m *Matching) Validate(s *pref.System) error {
	g := s.Graph()
	if m.n != g.NumNodes() {
		return fmt.Errorf("matching: %d nodes, graph has %d", m.n, g.NumNodes())
	}
	for u := 0; u < m.n; u++ {
		for _, v := range m.conns[u] {
			if u < v && !g.HasEdge(u, v) {
				return fmt.Errorf("matching: selected non-edge %v", graph.Edge{U: u, V: v})
			}
		}
	}
	for i := 0; i < m.n; i++ {
		if len(m.conns[i]) > s.Quota(i) {
			return fmt.Errorf("matching: node %d has %d connections, quota %d",
				i, len(m.conns[i]), s.Quota(i))
		}
	}
	return nil
}

// Weight returns the matching's total eq.-9 weight under system s.
// Summation follows the canonical edge order so the result is
// bit-for-bit deterministic across runs.
func (m *Matching) Weight(s *pref.System) float64 {
	var w float64
	for _, e := range m.Edges() {
		w += satisfaction.EdgeWeight(s, e)
	}
	return w
}

// TotalSatisfaction returns Σi Si (eq. 1) under system s — the
// objective of the maximizing-satisfaction b-matching problem.
func (m *Matching) TotalSatisfaction(s *pref.System) float64 {
	var total float64
	for i := 0; i < m.n; i++ {
		total += satisfaction.Value(s, i, m.conns[i])
	}
	return total
}

// TotalModifiedSatisfaction returns Σi S̄i (eq. 6) — the objective of
// the modified (static-only) problem. By Lemma 2 this equals Weight.
func (m *Matching) TotalModifiedSatisfaction(s *pref.System) float64 {
	var total float64
	for i := 0; i < m.n; i++ {
		total += satisfaction.ModifiedValue(s, i, m.conns[i])
	}
	return total
}

// PerNodeSatisfaction returns each node's Si (eq. 1).
func (m *Matching) PerNodeSatisfaction(s *pref.System) []float64 {
	out := make([]float64, m.n)
	for i := 0; i < m.n; i++ {
		out[i] = satisfaction.Value(s, i, m.conns[i])
	}
	return out
}

// String returns e.g. "matching{edges=5}".
func (m *Matching) String() string {
	return fmt.Sprintf("matching{edges=%d}", m.size)
}
