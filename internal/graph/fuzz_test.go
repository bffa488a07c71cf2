package graph

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadEdgeList: the parser must never panic on arbitrary input,
// and anything it accepts must round-trip through WriteEdgeList.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("n 3\n0 1\n1 2\n")
	f.Add("# comment\n\nn 5\n0 4\n")
	f.Add("n 0\n")
	f.Add("0 1\n")
	f.Add("n -1\n")
	f.Add("n 3\n1 1\n")
	f.Add("n x\n0 1")
	f.Add(strings.Repeat("n 2\n", 3))
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("serializing accepted graph: %v", err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("reparsing own output: %v", err)
		}
		if g2.NumNodes() != g.NumNodes() || !reflect.DeepEqual(g2.Edges(), g.Edges()) {
			t.Fatal("round trip changed the graph")
		}
	})
}

// FuzzGraphJSON: Unmarshal must never panic and accepted graphs must
// satisfy the structural invariants.
func FuzzGraphJSON(f *testing.F) {
	f.Add(`{"n":3,"edges":[[0,1],[1,2]]}`)
	f.Add(`{"n":0,"edges":[]}`)
	f.Add(`{"n":-1}`)
	f.Add(`{"n":2,"edges":[[0,0]]}`)
	f.Add(`{"n":1e9,"edges":[]}`)
	f.Fuzz(func(t *testing.T, input string) {
		var g Graph
		if err := g.UnmarshalJSON([]byte(input)); err != nil {
			return
		}
		if g.NumNodes() > 1<<20 {
			t.Skip("absurdly large accepted graph; skip invariant scan")
		}
		degSum := 0
		for u := 0; u < g.NumNodes(); u++ {
			degSum += g.Degree(u)
		}
		if degSum != 2*g.NumEdges() {
			t.Fatal("degree sum invariant violated")
		}
	})
}

// FuzzEdgeIndexRoundTrip: the CSR edge index must stay consistent with
// the adjacency view for arbitrary graphs built by arbitrary mixes of
// the Builder's calls. The input bytes are decoded as a node count plus
// a sequence of endpoint pairs; the top two bits of a pair's first byte
// pick the call: AddEdge of a new edge, TryAddEdge, a raw AddEdge
// (which may repeat an edge or add a self loop), or HasEdge. A map
// models the edge set: TryAddEdge and HasEdge must agree with it at
// every step, Graph() must fail exactly when a raw AddEdge was
// invalid, and otherwise build the modelled edges, with every public
// index accessor cross-checked against every other.
func FuzzEdgeIndexRoundTrip(f *testing.F) {
	f.Add([]byte{3, 0, 1, 1, 2})
	f.Add([]byte{1})
	f.Add([]byte{5, 0, 4, 4, 0, 2, 2})
	f.Add([]byte{8, 0, 1, 0, 2, 0, 3, 1, 2, 6, 7})
	f.Add([]byte{8, 0, 1, 64, 1, 128, 3, 193, 0, 130, 3})
	f.Add([]byte{6, 2, 5, 133, 2, 66, 5, 197, 2})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0])%64 + 1
		b := NewBuilder(n)
		model := make(map[Edge]bool)
		invalid := false
		for i := 1; i+1 < len(data); i += 2 {
			u, v := NodeID(data[i])%n, NodeID(data[i+1])%n
			e := Edge{u, v}.Normalize()
			fresh := u != v && !model[e]
			switch data[i] >> 6 {
			case 0:
				if fresh {
					b.AddEdge(u, v)
				}
			case 1:
				if got := b.TryAddEdge(u, v); got != fresh {
					t.Fatalf("TryAddEdge(%d,%d) = %v, want %v", u, v, got, fresh)
				}
			case 2:
				b.AddEdge(u, v)
				invalid = invalid || !fresh
			case 3:
				if got := b.HasEdge(u, v); got != model[e] {
					t.Fatalf("HasEdge(%d,%d) = %v, want %v", u, v, got, model[e])
				}
				fresh = false
			}
			if fresh {
				model[e] = true
			}
		}
		g, err := b.Graph()
		if invalid {
			if err == nil {
				t.Fatal("Graph() accepted a duplicate or a self loop")
			}
			return
		}
		if err != nil {
			t.Fatalf("Graph() rejected valid edges: %v", err)
		}
		if g.NumEdges() != len(model) || b.NumEdges() != len(model) {
			t.Fatalf("graph has %d edges, builder counts %d, model %d", g.NumEdges(), b.NumEdges(), len(model))
		}
		for _, e := range g.Edges() {
			if !model[e] {
				t.Fatalf("graph edge %v was never added", e)
			}
		}
		seen := make([]bool, g.NumEdges())
		for u := 0; u < n; u++ {
			inc := g.IncidentEdges(u)
			adj := g.Neighbors(u)
			if len(inc) != len(adj) {
				t.Fatalf("node %d: %d incident edges, %d neighbors", u, len(inc), len(adj))
			}
			if int(g.IncidenceOffset(u+1)-g.IncidenceOffset(u)) != len(adj) {
				t.Fatalf("node %d: offset span disagrees with degree", u)
			}
			for k, id := range inc {
				v := adj[k]
				e := g.EdgeByID(id)
				if e.Other(u) != v || g.OtherEndpoint(id, u) != v {
					t.Fatalf("edge %d at slot (%d,%d): %v does not join them", id, u, k, e)
				}
				if got, ok := g.EdgeIDOf(u, v); !ok || got != id {
					t.Fatalf("EdgeIDOf(%d,%d) = %d,%v, want %d", u, v, got, ok, id)
				}
				if k2, ok := g.NeighborIndex(u, v); !ok || k2 != k {
					t.Fatalf("NeighborIndex(%d,%d) = %d,%v, want %d", u, v, k2, ok, k)
				}
				seen[id] = true
			}
		}
		for id, ok := range seen {
			if !ok {
				t.Fatalf("edge %d missing from every incidence list", id)
			}
		}
		for id, e := range g.Edges() {
			if e2 := g.EdgeByID(EdgeID(id)); e2 != e {
				t.Fatalf("EdgeByID(%d) = %v, Edges()[%d] = %v", id, e2, id, e)
			}
		}
	})
}
