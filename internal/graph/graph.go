// Package graph implements the undirected graphs that model peer-to-peer
// overlays in the paper's problem model (§2): nodes are peers, edges are
// potential connections. The package provides construction, validation,
// structural queries (degrees, components, distances) and serialization;
// preference lists and quotas live in package pref, matchings in package
// matching.
package graph

import (
	"fmt"
	"math"
	"sort"
)

// edgeLimit is the largest edge count a Graph can index: EdgeID is
// int32 and the CSR incidence offsets count 2m directed slots in
// int32, so m must satisfy 2m <= MaxInt32. It is a variable only so
// the overflow test can lower it; real code treats it as a constant.
var edgeLimit = math.MaxInt32 / 2

// NodeID identifies a node. Nodes of a Graph with n nodes are exactly
// 0..n-1; algorithms rely on this density to use slices instead of maps.
type NodeID = int

// EdgeID is the dense identifier of an edge: edges of a Graph with m
// edges are exactly 0..m-1, numbered in canonical lexicographic order
// (the order of Edges()). Hot paths index flat arrays by EdgeID instead
// of keying maps by Edge; int32 keeps edge-indexed tables compact (the
// model's graphs are overlays, far below 2³¹ edges).
type EdgeID = int32

// Edge is an undirected edge between two distinct nodes. The canonical
// form has U < V; Normalize establishes it.
type Edge struct {
	U, V NodeID
}

// Normalize returns the edge with endpoints ordered so that U < V.
func (e Edge) Normalize() Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// Other returns the endpoint of e that is not x. It panics if x is not
// an endpoint of e.
func (e Edge) Other(x NodeID) NodeID {
	switch x {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %v", x, e))
}

func (e Edge) String() string { return fmt.Sprintf("(%d,%d)", e.U, e.V) }

// Graph is a simple undirected graph over nodes 0..n-1 with no self
// loops and no parallel edges. The zero value is an empty graph with no
// nodes. Graph is immutable once built through a Builder; the read
// methods are safe for concurrent use.
type Graph struct {
	n     int
	adj   [][]NodeID // adj[u] sorted ascending
	edges []Edge     // canonical, sorted lexicographically; index = EdgeID

	// CSR incidence: inc[incOff[u]:incOff[u+1]] are the EdgeIDs of the
	// edges incident to u, aligned with adj[u] (inc entry k is the edge
	// {u, adj[u][k]}). One offsets+ids pair serves the whole graph; the
	// per-node views are subslices, never copies.
	incOff []int32
	inc    []EdgeID
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Degree returns the degree of node u.
func (g *Graph) Degree(u NodeID) int { return len(g.adj[u]) }

// Neighbors returns the sorted neighbor list of u. The returned slice
// is shared with the graph and must not be modified.
func (g *Graph) Neighbors(u NodeID) []NodeID { return g.adj[u] }

// Edges returns all edges in canonical form, sorted lexicographically.
// The returned slice is shared with the graph and must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// HasEdge reports whether {u,v} is an edge. Runs in O(log deg(u)).
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.NeighborIndex(u, v)
	return ok
}

// NeighborIndex returns v's position in u's sorted neighbor list, and
// whether v is a neighbor of u at all. The position is the shared
// index all CSR-aligned per-node arrays use (adjacency, incidence,
// preference ranks, weight-list positions). Runs in O(log deg(u)).
func (g *Graph) NeighborIndex(u, v NodeID) (int, bool) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return 0, false
	}
	return SearchNeighbor(g.adj[u], v)
}

// SearchNeighbor binary-searches the ascending list a for v, returning
// v's index and true, or the insertion point and false. It is the one
// neighbor search behind NeighborIndex and the protocol nodes'
// weight-list lookups, and small enough to inline into them.
func SearchNeighbor(a []NodeID, v NodeID) (int, bool) {
	lo, hi := 0, len(a)
	for lo < hi {
		if h := int(uint(lo+hi) >> 1); a[h] < v {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(a) && a[lo] == v
}

// IncidentEdges returns the EdgeIDs of the edges incident to u, aligned
// with Neighbors(u): entry k is the edge {u, Neighbors(u)[k]}. The
// slice is a view into the graph's shared CSR arrays and must not be
// modified.
func (g *Graph) IncidentEdges(u NodeID) []EdgeID {
	return g.inc[g.incOff[u]:g.incOff[u+1]]
}

// IncidenceOffset returns the start of u's slot in the graph's shared
// CSR arrays: a per-node array flattened over all nodes in CSR layout
// stores node u's entry for neighbor position k at
// IncidenceOffset(u)+k. Packages pref and satisfaction lay their rank
// and weight-list tables out this way.
func (g *Graph) IncidenceOffset(u NodeID) int32 { return g.incOff[u] }

// EdgeByID returns the canonical edge with the given dense id. It
// panics if the id is out of range.
func (g *Graph) EdgeByID(id EdgeID) Edge { return g.edges[id] }

// EdgeIDOf returns the dense id of edge {u,v} and whether the edge
// exists. Runs in O(log deg(u)).
func (g *Graph) EdgeIDOf(u, v NodeID) (EdgeID, bool) {
	k, ok := g.NeighborIndex(u, v)
	if !ok {
		return 0, false
	}
	return g.inc[g.incOff[u]+int32(k)], true
}

// OtherEndpoint returns the endpoint of edge id that is not x. It
// panics if x is not an endpoint.
func (g *Graph) OtherEndpoint(id EdgeID, x NodeID) NodeID {
	return g.edges[id].Other(x)
}

// MaxDegree returns the maximum degree over all nodes (0 for an empty
// graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for _, a := range g.adj {
		if len(a) > max {
			max = len(a)
		}
	}
	return max
}

// MinDegree returns the minimum degree over all nodes (0 for an empty
// graph).
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	min := len(g.adj[0])
	for _, a := range g.adj[1:] {
		if len(a) < min {
			min = len(a)
		}
	}
	return min
}

// AvgDegree returns the average degree 2m/n, or 0 for an empty graph.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(len(g.edges)) / float64(g.n)
}

// Components returns the connected components as sorted node slices,
// ordered by their smallest node.
func (g *Graph) Components() [][]NodeID {
	seen := make([]bool, g.n)
	var comps [][]NodeID
	queue := make([]NodeID, 0, g.n)
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		queue = queue[:0]
		queue = append(queue, s)
		comp := []NodeID{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.adj[u] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
					comp = append(comp, v)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// IsConnected reports whether the graph has at most one connected
// component. The empty graph and the single-node graph are connected.
func (g *Graph) IsConnected() bool {
	return len(g.Components()) <= 1
}

// BFSDistances returns the hop distance from src to every node, with -1
// for unreachable nodes.
func (g *Graph) BFSDistances(src NodeID) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Subgraph returns the subgraph induced by keep (node IDs are
// relabelled 0..len(keep)-1 in the order given) together with the
// mapping from new IDs back to original IDs. Duplicate or out-of-range
// nodes in keep cause an error.
func (g *Graph) Subgraph(keep []NodeID) (*Graph, []NodeID, error) {
	newID := make(map[NodeID]int, len(keep))
	for i, u := range keep {
		if u < 0 || u >= g.n {
			return nil, nil, fmt.Errorf("graph: subgraph node %d out of range [0,%d)", u, g.n)
		}
		if _, dup := newID[u]; dup {
			return nil, nil, fmt.Errorf("graph: subgraph node %d duplicated", u)
		}
		newID[u] = i
	}
	b := NewBuilder(len(keep))
	for _, e := range g.edges {
		iu, okU := newID[e.U]
		iv, okV := newID[e.V]
		if okU && okV {
			b.AddEdge(iu, iv)
		}
	}
	sub, err := b.Graph()
	if err != nil {
		return nil, nil, err
	}
	back := append([]NodeID(nil), keep...)
	return sub, back, nil
}

// String returns a compact description such as "graph{n=5 m=7}".
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.n, len(g.edges))
}

// Builder accumulates edges and produces an immutable Graph. Adding an
// edge twice, a self loop, or an out-of-range endpoint is recorded and
// reported by Graph().
type Builder struct {
	n    int
	seen map[Edge]struct{}
	errs []error
}

// NewBuilder returns a Builder for a graph on n nodes. It panics if n
// is negative.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: NewBuilder with negative n")
	}
	return &Builder{n: n, seen: make(map[Edge]struct{})}
}

// AddEdge records the undirected edge {u,v}. Violations (self loop,
// out-of-range, duplicate) are collected and surfaced by Graph().
func (b *Builder) AddEdge(u, v NodeID) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		b.errs = append(b.errs, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
		return
	}
	if u == v {
		b.errs = append(b.errs, fmt.Errorf("graph: self loop at node %d", u))
		return
	}
	e := Edge{u, v}.Normalize()
	if _, dup := b.seen[e]; dup {
		b.errs = append(b.errs, fmt.Errorf("graph: duplicate edge %v", e))
		return
	}
	b.seen[e] = struct{}{}
}

// TryAddEdge records {u,v} if it is a valid new edge and reports
// whether it was added. Unlike AddEdge it treats duplicates and self
// loops as a normal "no" rather than an error, which is what random
// generators want.
func (b *Builder) TryAddEdge(u, v NodeID) bool {
	if u < 0 || u >= b.n || v < 0 || v >= b.n || u == v {
		return false
	}
	e := Edge{u, v}.Normalize()
	if _, dup := b.seen[e]; dup {
		return false
	}
	b.seen[e] = struct{}{}
	return true
}

// HasEdge reports whether {u,v} has been added.
func (b *Builder) HasEdge(u, v NodeID) bool {
	_, ok := b.seen[Edge{u, v}.Normalize()]
	return ok
}

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.seen) }

// Graph finalizes the builder. It returns an error if any AddEdge call
// was invalid.
func (b *Builder) Graph() (*Graph, error) {
	if len(b.errs) > 0 {
		return nil, fmt.Errorf("graph: %d invalid edge(s), first: %w", len(b.errs), b.errs[0])
	}
	// Dense EdgeIDs are int32 and the incidence offsets accumulate 2m in
	// int32; beyond this the ids and offsets would silently wrap, so the
	// builder refuses instead.
	if len(b.seen) > edgeLimit {
		return nil, fmt.Errorf(
			"graph: %d edges exceed the dense-index limit of %d (EdgeID and CSR incidence offsets are int32; 2m must fit)",
			len(b.seen), edgeLimit)
	}
	g := &Graph{
		n:     b.n,
		adj:   make([][]NodeID, b.n),
		edges: make([]Edge, 0, len(b.seen)),
	}
	for e := range b.seen {
		g.edges = append(g.edges, e)
	}
	sort.Slice(g.edges, func(i, j int) bool {
		if g.edges[i].U != g.edges[j].U {
			return g.edges[i].U < g.edges[j].U
		}
		return g.edges[i].V < g.edges[j].V
	})
	deg := make([]int, b.n)
	for _, e := range g.edges {
		deg[e.U]++
		deg[e.V]++
	}
	// One flat buffer per array (adjacency, incidence); per-node views
	// are subslices. A single pass over the lexicographically sorted
	// edge list appends each node's neighbors in ascending order — the
	// V-side entries (U < v, by ascending U) all precede the U-side
	// entries (V > v, by ascending V) — so no per-node sort is needed
	// and inc stays aligned with adj by construction.
	g.incOff = make([]int32, b.n+1)
	for u := 0; u < b.n; u++ {
		g.incOff[u+1] = g.incOff[u] + int32(deg[u])
	}
	adjBuf := make([]NodeID, 2*len(g.edges))
	g.inc = make([]EdgeID, 2*len(g.edges))
	cursor := make([]int32, b.n)
	copy(cursor, g.incOff[:b.n])
	for id, e := range g.edges {
		adjBuf[cursor[e.U]] = e.V
		g.inc[cursor[e.U]] = EdgeID(id)
		cursor[e.U]++
		adjBuf[cursor[e.V]] = e.U
		g.inc[cursor[e.V]] = EdgeID(id)
		cursor[e.V]++
	}
	for u := range g.adj {
		g.adj[u] = adjBuf[g.incOff[u]:g.incOff[u+1]:g.incOff[u+1]]
	}
	return g, nil
}

// MustGraph is Graph() but panics on error; for use with statically
// correct construction (tests, examples).
func (b *Builder) MustGraph() *Graph {
	g, err := b.Graph()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges builds a graph on n nodes from an edge list.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Graph()
}

// MustFromEdges is FromEdges but panics on error.
func MustFromEdges(n int, edges []Edge) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}
