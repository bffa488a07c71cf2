package pref

import (
	"overlaymatch/internal/graph"
)

// Acyclicity of preference systems, after Gai, Lebedev, Mathieu,
// de Montgolfier, Reynier, Viennot, "Acyclic preference systems in P2P
// networks" (Euro-Par 2007) — reference [3] of the paper. A preference
// system is acyclic when the "prefers" relation it induces on edges has
// no directed cycle; equivalently, when it can be represented by
// symmetric edge weights that every node ranks by. Prior work
// guarantees stabilization of b-matching dynamics only for acyclic
// systems; the paper's LID needs no such restriction (it synthesizes
// its own symmetric weights, eq. 9), and the experiment suite uses this
// test to label workloads.

// IsAcyclic reports whether the preference system is acyclic in the
// Gai et al. sense. It builds the edge-preference digraph — an arc from
// edge (i, Li[r]) to edge (i, Li[r+1]) for every node i and consecutive
// rank r (transitive pairs are implied) — and checks it for directed
// cycles. Runs in O(n + m).
func IsAcyclic(s *System) bool {
	return FindPreferenceCycle(s) == nil
}

// FindPreferenceCycle returns a witness cycle of edges e0, e1, ..., ek-1
// such that each ei is strictly preferred to e(i+1 mod k) by their
// shared endpoint, or nil if the system is acyclic. The witness closes
// on itself (last element precedes the first in the preference order).
func FindPreferenceCycle(s *System) []graph.Edge {
	g := s.Graph()
	m := g.NumEdges()
	// The digraph's vertices are EdgeIDs. Edge e = {u,v}, u < v, has at
	// most two out-arcs: to the edge u ranks next after e, and to the
	// edge v ranks next. They sit at succ[2e] and succ[2e+1] (-1 where
	// e is last in that endpoint's list), a CSR layout with a uniform
	// stride of 2. The u-arc comes first because nodes are visited in
	// ascending order, as the arcs were appended before; the DFS
	// therefore takes children in the same order and finds the same
	// witness.
	succ := make([]int32, 2*m)
	for k := range succ {
		succ[k] = -1
	}
	// byRank[r] is the EdgeID node i ranks at r: the edge in incidence
	// slot k, where RankAt(i, k) == r.
	byRank := make([]graph.EdgeID, g.MaxDegree())
	for i := 0; i < g.NumNodes(); i++ {
		inc := g.IncidentEdges(i)
		for k, id := range inc {
			byRank[s.RankAt(i, k)] = id
		}
		for r := 0; r+1 < len(inc); r++ {
			from := byRank[r]
			side := int32(0)
			if g.EdgeByID(from).U != i {
				side = 1
			}
			succ[2*from+side] = byRank[r+1]
		}
	}
	// Iterative DFS with colors; record the stack to extract a witness.
	// One stack serves every start: a DFS path is at most m long.
	const (
		white = iota
		gray
		black
	)
	color := make([]int8, m)
	parent := make([]int32, m)
	type frame struct {
		node, next int32
	}
	stack := make([]frame, 0, m)
	for start := int32(0); start < int32(m); start++ {
		if color[start] != white {
			continue
		}
		stack = append(stack[:0], frame{start, 0})
		color[start] = gray
		parent[start] = -1
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < 2 {
				child := succ[2*f.node+f.next]
				f.next++
				if child < 0 {
					continue
				}
				switch color[child] {
				case white:
					color[child] = gray
					parent[child] = f.node
					stack = append(stack, frame{child, 0})
				case gray:
					// Found a cycle: walk parents from f.node back to child.
					var rev []int32
					for x := f.node; ; x = parent[x] {
						rev = append(rev, x)
						if x == child {
							break
						}
					}
					cycle := make([]graph.Edge, 0, len(rev))
					for k := len(rev) - 1; k >= 0; k-- {
						cycle = append(cycle, g.EdgeByID(rev[k]))
					}
					return cycle
				}
				continue
			}
			color[f.node] = black
			stack = stack[:len(stack)-1]
		}
	}
	return nil
}
