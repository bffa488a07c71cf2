package graph

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"overlaymatch/internal/rng"
)

func path5(t *testing.T) *Graph {
	t.Helper()
	return MustFromEdges(5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
}

func TestEdgeNormalize(t *testing.T) {
	if got := (Edge{3, 1}).Normalize(); got != (Edge{1, 3}) {
		t.Fatalf("Normalize(3,1) = %v", got)
	}
	if got := (Edge{1, 3}).Normalize(); got != (Edge{1, 3}) {
		t.Fatalf("Normalize(1,3) = %v", got)
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{2, 7}
	if e.Other(2) != 7 || e.Other(7) != 2 {
		t.Fatal("Other returned wrong endpoint")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Other on non-endpoint did not panic")
		}
	}()
	e.Other(5)
}

func TestBuilderBasics(t *testing.T) {
	g := path5(t)
	if g.NumNodes() != 5 || g.NumEdges() != 4 {
		t.Fatalf("got %v", g)
	}
	wantDeg := []int{1, 2, 2, 2, 1}
	for u, w := range wantDeg {
		if g.Degree(u) != w {
			t.Fatalf("deg(%d) = %d, want %d", u, g.Degree(u), w)
		}
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("HasEdge symmetric lookup failed")
	}
	if g.HasEdge(0, 2) || g.HasEdge(0, 0) || g.HasEdge(-1, 2) || g.HasEdge(0, 9) {
		t.Fatal("HasEdge accepted a non-edge")
	}
}

func TestBuilderErrorCollection(t *testing.T) {
	cases := map[string]func(b *Builder){
		"self loop":    func(b *Builder) { b.AddEdge(1, 1) },
		"duplicate":    func(b *Builder) { b.AddEdge(0, 1); b.AddEdge(1, 0) },
		"out of range": func(b *Builder) { b.AddEdge(0, 5) },
		"negative":     func(b *Builder) { b.AddEdge(-1, 0) },
	}
	for name, mutate := range cases {
		b := NewBuilder(3)
		mutate(b)
		if _, err := b.Graph(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestTryAddEdge(t *testing.T) {
	b := NewBuilder(3)
	if !b.TryAddEdge(0, 1) {
		t.Fatal("first TryAddEdge rejected")
	}
	if b.TryAddEdge(1, 0) {
		t.Fatal("duplicate TryAddEdge accepted")
	}
	if b.TryAddEdge(1, 1) {
		t.Fatal("self-loop TryAddEdge accepted")
	}
	if b.TryAddEdge(0, 3) {
		t.Fatal("out-of-range TryAddEdge accepted")
	}
	if b.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d", b.NumEdges())
	}
	g := b.MustGraph()
	if g.NumEdges() != 1 {
		t.Fatalf("graph edges = %d", g.NumEdges())
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := MustFromEdges(5, []Edge{{4, 2}, {2, 0}, {2, 3}, {2, 1}})
	if !sort.IntsAreSorted(g.Neighbors(2)) {
		t.Fatalf("neighbors of 2 not sorted: %v", g.Neighbors(2))
	}
	if want := []NodeID{0, 1, 3, 4}; !reflect.DeepEqual(g.Neighbors(2), want) {
		t.Fatalf("neighbors of 2 = %v, want %v", g.Neighbors(2), want)
	}
}

func TestEdgesCanonicalSorted(t *testing.T) {
	g := MustFromEdges(4, []Edge{{3, 2}, {1, 0}, {2, 0}})
	want := []Edge{{0, 1}, {0, 2}, {2, 3}}
	if !reflect.DeepEqual(g.Edges(), want) {
		t.Fatalf("edges = %v, want %v", g.Edges(), want)
	}
}

func TestDegreeStats(t *testing.T) {
	g := MustFromEdges(4, []Edge{{0, 1}, {0, 2}, {0, 3}})
	if g.MaxDegree() != 3 || g.MinDegree() != 1 {
		t.Fatalf("max/min degree = %d/%d", g.MaxDegree(), g.MinDegree())
	}
	if got := g.AvgDegree(); got != 1.5 {
		t.Fatalf("avg degree = %v", got)
	}
	empty := NewBuilder(0).MustGraph()
	if empty.MaxDegree() != 0 || empty.MinDegree() != 0 || empty.AvgDegree() != 0 {
		t.Fatal("empty graph degree stats nonzero")
	}
}

func TestComponents(t *testing.T) {
	g := MustFromEdges(7, []Edge{{0, 1}, {1, 2}, {4, 5}})
	comps := g.Components()
	want := [][]NodeID{{0, 1, 2}, {3}, {4, 5}, {6}}
	if !reflect.DeepEqual(comps, want) {
		t.Fatalf("components = %v, want %v", comps, want)
	}
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
	if !path5(t).IsConnected() {
		t.Fatal("path reported disconnected")
	}
	if !NewBuilder(0).MustGraph().IsConnected() {
		t.Fatal("empty graph reported disconnected")
	}
}

func TestBFSDistances(t *testing.T) {
	g := MustFromEdges(6, []Edge{{0, 1}, {1, 2}, {2, 3}, {0, 4}})
	dist := g.BFSDistances(0)
	want := []int{0, 1, 2, 3, 1, -1}
	if !reflect.DeepEqual(dist, want) {
		t.Fatalf("distances = %v, want %v", dist, want)
	}
}

func TestSubgraph(t *testing.T) {
	g := MustFromEdges(6, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	sub, back, err := g.Subgraph([]NodeID{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumNodes() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("subgraph = %v", sub)
	}
	if !reflect.DeepEqual(back, []NodeID{1, 2, 3}) {
		t.Fatalf("back mapping = %v", back)
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) || sub.HasEdge(0, 2) {
		t.Fatal("subgraph edges wrong")
	}
}

func TestSubgraphErrors(t *testing.T) {
	g := path5(t)
	if _, _, err := g.Subgraph([]NodeID{0, 0}); err == nil {
		t.Fatal("duplicate keep node accepted")
	}
	if _, _, err := g.Subgraph([]NodeID{0, 9}); err == nil {
		t.Fatal("out-of-range keep node accepted")
	}
}

// TestAdjacencyEdgeConsistency is a property test: for random graphs,
// the adjacency structure and the edge list must describe the same
// relation, degrees must sum to 2m, and HasEdge must agree with both.
func TestAdjacencyEdgeConsistency(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%20 + 2
		src := rng.New(seed)
		b := NewBuilder(n)
		for k := 0; k < n*2; k++ {
			b.TryAddEdge(src.Intn(n), src.Intn(n))
		}
		g := b.MustGraph()

		degSum := 0
		for u := 0; u < n; u++ {
			degSum += g.Degree(u)
			for _, v := range g.Neighbors(u) {
				if !g.HasEdge(u, v) {
					return false
				}
			}
		}
		if degSum != 2*g.NumEdges() {
			return false
		}
		for _, e := range g.Edges() {
			if e.U >= e.V || !g.HasEdge(e.U, e.V) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestString(t *testing.T) {
	if got := path5(t).String(); got != "graph{n=5 m=4}" {
		t.Fatalf("String = %q", got)
	}
}

// TestBuilderDeferredDuplicate: an AddEdge duplicate made while no
// online set exists is accepted by AddEdge, counted by NumEdges, and
// reported by Graph() as an invalid edge.
func TestBuilderDeferredDuplicate(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	b.AddEdge(1, 0)
	if b.NumEdges() != 3 {
		t.Fatalf("NumEdges with a pending duplicate = %d, want 3", b.NumEdges())
	}
	_, err := b.Graph()
	if err == nil {
		t.Fatal("Graph() accepted a duplicate edge")
	}
	for _, want := range []string{"1 invalid edge(s)", "duplicate edge (0,1)"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	// Graph() dropped the duplicate: the count is settled and a second
	// call reports the same single error.
	if b.NumEdges() != 2 {
		t.Fatalf("NumEdges after Graph() = %d, want 2", b.NumEdges())
	}
	if _, err2 := b.Graph(); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("second Graph() error = %v, want %v", err2, err)
	}
}

// TestBuilderFirstErrorOrder pins which violation Graph()'s error
// names first: immediate ones (self loop, out of range) in emission
// order, then deferred AddEdge duplicates in sorted edge order, not in
// the order they were emitted.
func TestBuilderFirstErrorOrder(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(3, 4)
	b.AddEdge(4, 3) // deferred duplicate, emitted first
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // deferred duplicate, sorts first
	b.AddEdge(5, 5) // immediate
	_, err := b.Graph()
	if err == nil {
		t.Fatal("Graph() accepted a self loop and duplicates")
	}
	if want := "graph: 3 invalid edge(s), first: graph: self loop at node 5"; err.Error() != want {
		t.Fatalf("error = %q, want %q", err, want)
	}

	b = NewBuilder(6)
	b.AddEdge(3, 4)
	b.AddEdge(4, 3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	_, err = b.Graph()
	if want := "graph: 2 invalid edge(s), first: graph: duplicate edge (0,1)"; err == nil || err.Error() != want {
		t.Fatalf("error = %v, want %q", err, want)
	}
}

// TestBuilderOnlineDedup: once TryAddEdge or HasEdge has built the
// online set, it sees earlier AddEdge calls, and later AddEdge
// duplicates are rejected (and not counted) at once.
func TestBuilderOnlineDedup(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	if b.TryAddEdge(1, 0) {
		t.Fatal("TryAddEdge(1,0) accepted after AddEdge(0,1)")
	}
	if !b.HasEdge(1, 0) || !b.HasEdge(0, 1) {
		t.Fatal("HasEdge misses an AddEdge edge")
	}
	if b.HasEdge(0, 2) {
		t.Fatal("HasEdge reports an edge never added")
	}
	b.AddEdge(2, 3)
	if b.TryAddEdge(3, 2) || !b.HasEdge(3, 2) {
		t.Fatal("online set misses an AddEdge made after it was built")
	}
	b.AddEdge(3, 2)
	if b.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 (online duplicate not counted)", b.NumEdges())
	}
	if _, err := b.Graph(); err == nil || !strings.Contains(err.Error(), "duplicate edge (2,3)") {
		t.Fatalf("Graph() error = %v, want the duplicate (2,3)", err)
	}
}

// TestBuilderEmissionOrder: shuffled emission builds the same graph as
// sorted emission (the same EdgeIDs and CSR arrays), and calling
// Graph() twice gives equal graphs.
func TestBuilderEmissionOrder(t *testing.T) {
	src := rng.New(5)
	n := 40
	var sorted []Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if src.Bool(0.2) {
				sorted = append(sorted, Edge{u, v})
			}
		}
	}
	shuffled := append([]Edge(nil), sorted...)
	src.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for k := range shuffled {
		if k%2 == 1 {
			shuffled[k].U, shuffled[k].V = shuffled[k].V, shuffled[k].U
		}
	}
	want := MustFromEdges(n, sorted)
	b := NewBuilder(n)
	for _, e := range shuffled {
		b.AddEdge(e.U, e.V)
	}
	got := b.MustGraph()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("shuffled emission built a different graph than sorted emission")
	}
	if again := b.MustGraph(); !reflect.DeepEqual(again, got) {
		t.Fatal("second Graph() differs from the first")
	}
	// An edge added after Graph(), sorting before edges already there,
	// reaches the next graph but not the one already built.
	u, v := 0, 1
	for got.HasEdge(u, v) {
		v++
	}
	b.AddEdge(v, u)
	if next := b.MustGraph(); !next.HasEdge(u, v) || next.NumEdges() != got.NumEdges()+1 {
		t.Fatalf("edge (%d,%d) added after Graph() missing from the next graph", u, v)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("AddEdge after Graph() changed the graph already built")
	}
}
