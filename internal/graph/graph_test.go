package graph

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var g Graph
	if !g.AddEdge(1, 2) {
		t.Fatal("AddEdge on zero value failed")
	}
	if g.NumVertices() != 2 || g.NumEdges() != 1 {
		t.Fatalf("got %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
}

func TestEdgeKeySymmetric(t *testing.T) {
	check := func(u, v uint32) bool {
		if EdgeKey(u, v) != EdgeKey(v, u) {
			return false
		}
		a, b := UnpackEdgeKey(EdgeKey(u, v))
		if u <= v {
			return a == u && b == v
		}
		return a == v && b == u
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeRejectsSelfLoopsAndDuplicates(t *testing.T) {
	g := New()
	if g.AddEdge(3, 3) {
		t.Fatal("self-loop accepted")
	}
	if !g.AddEdge(1, 2) || g.AddEdge(2, 1) {
		t.Fatal("duplicate (reversed) edge accepted")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	if !g.RemoveEdge(2, 1) { // reversed order must work
		t.Fatal("RemoveEdge failed")
	}
	if g.RemoveEdge(1, 2) {
		t.Fatal("double remove succeeded")
	}
	if g.HasEdge(1, 2) || !g.HasEdge(2, 3) {
		t.Fatal("wrong edge removed")
	}
	if g.Degree(2) != 1 || g.Degree(1) != 0 {
		t.Fatalf("degrees: %d %d", g.Degree(2), g.Degree(1))
	}
}

func TestVertexLifecycle(t *testing.T) {
	g := New()
	if !g.AddVertex(5) || g.AddVertex(5) {
		t.Fatal("AddVertex semantics")
	}
	g.AddEdge(5, 6)
	g.AddEdge(5, 7)
	if !g.RemoveVertex(5) {
		t.Fatal("RemoveVertex failed")
	}
	if g.RemoveVertex(5) {
		t.Fatal("double remove succeeded")
	}
	if g.HasEdge(5, 6) || g.HasEdge(5, 7) {
		t.Fatal("incident edges survived vertex removal")
	}
	if g.NumVertices() != 2 || g.NumEdges() != 0 {
		t.Fatalf("%d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborsAndIteration(t *testing.T) {
	g := New()
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	if len(g.Neighbors(0)) != 3 {
		t.Fatalf("neighbors: %v", g.Neighbors(0))
	}
	if g.Neighbors(99) != nil {
		t.Fatal("absent vertex has neighbors")
	}
	var edges int
	g.ForEachEdge(func(u, v VertexID) {
		if u >= v {
			t.Fatalf("ForEachEdge order violated: %d >= %d", u, v)
		}
		edges++
	})
	if edges != 3 {
		t.Fatalf("iterated %d edges", edges)
	}
	vs := g.Vertices()
	if len(vs) != 4 || vs[0] != 0 || vs[3] != 3 {
		t.Fatalf("vertices: %v", vs)
	}
}

func TestCloneAndEqual(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	c := g.Clone()
	if !g.Equal(c) || !c.Equal(g) {
		t.Fatal("clone not equal")
	}
	c.AddEdge(3, 4)
	if g.Equal(c) {
		t.Fatal("mutated clone still equal")
	}
	if g.HasEdge(3, 4) {
		t.Fatal("clone mutation leaked into original")
	}
}

func TestApplyBatch(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	changed := g.Apply([]Edit{
		{Op: Insert, U: 2, V: 3},
		{Op: Insert, U: 1, V: 2}, // duplicate: no-op
		{Op: Delete, U: 1, V: 2},
		{Op: Delete, U: 8, V: 9}, // absent: no-op
	})
	if changed != 2 {
		t.Fatalf("changed = %d, want 2", changed)
	}
	if g.HasEdge(1, 2) || !g.HasEdge(2, 3) {
		t.Fatal("batch applied incorrectly")
	}
}

func TestOpString(t *testing.T) {
	if Insert.String() != "insert" || Delete.String() != "delete" {
		t.Fatal("Op.String")
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corrupt: break symmetry by hand.
	g.adj[1] = append(g.adj[1], 7)
	if err := g.Validate(); err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestReadEdgeList(t *testing.T) {
	in := `# comment
% another comment
1 2
2 3 extra-ignored
3 3
2 1
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d (self-loops and duplicates must be dropped)", g.NumEdges())
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 3) {
		t.Fatal("edges missing")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, in := range []string{"1\n", "a b\n", "1 x\n"} {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Fatalf("no error for %q", in)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := New()
	g.AddEdge(5, 1)
	g.AddEdge(2, 9)
	g.AddEdge(1, 2)
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Fatal("round trip lost edges")
	}
}

func TestComputeStats(t *testing.T) {
	g := New()
	g.AddVertex(9) // isolated
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	s := g.ComputeStats()
	if s.Vertices != 4 || s.Edges != 2 || s.MaxDegree != 2 || s.MinDegree != 0 || s.Isolated != 1 {
		t.Fatalf("stats: %+v", s)
	}
	if s.AvgDegree != 1 {
		t.Fatalf("avg degree %v", s.AvgDegree)
	}
	if !strings.Contains(s.String(), "# nodes      4") {
		t.Fatalf("String(): %q", s.String())
	}
}

// TestRandomOpsInvariant drives random mutations and re-validates.
func TestRandomOpsInvariant(t *testing.T) {
	check := func(ops []uint32) bool {
		g := New()
		for _, op := range ops {
			u := VertexID(op % 17)
			v := VertexID((op / 17) % 17)
			switch op % 4 {
			case 0, 1:
				g.AddEdge(u, v)
			case 2:
				g.RemoveEdge(u, v)
			case 3:
				if op%8 == 3 {
					g.RemoveVertex(u)
				} else {
					g.AddVertex(u)
				}
			}
		}
		return g.Validate() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxVertexIDCountsDeleted(t *testing.T) {
	g := New()
	g.AddEdge(0, 9)
	g.RemoveVertex(9)
	if g.MaxVertexID() != 10 {
		t.Fatalf("MaxVertexID = %d, want 10 (ID space keeps deleted slots)", g.MaxVertexID())
	}
}

func TestRestoreAdjacencyPreservesOrder(t *testing.T) {
	g := New()
	g.AddEdge(0, 1)
	g.AddEdge(0, 3)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	g.RemoveEdge(0, 1) // swap-removal reorders 0's list: [2, 3]
	g.AddVertex(7)     // isolated vertex must survive the round trip

	present := g.Vertices()
	adj := make([][]VertexID, g.MaxVertexID())
	for _, v := range present {
		adj[v] = append([]VertexID(nil), g.Neighbors(v)...)
	}
	r, err := RestoreAdjacency(present, adj)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if !r.Equal(g) {
		t.Fatal("restored graph differs")
	}
	for _, v := range present {
		want, got := g.Neighbors(v), r.Neighbors(v)
		if len(want) != len(got) {
			t.Fatalf("vertex %d: degree %d vs %d", v, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("vertex %d: neighbor order not preserved: %v vs %v", v, want, got)
			}
		}
	}
}

func TestRestoreAdjacencyRejectsBadInput(t *testing.T) {
	cases := []struct {
		name    string
		present []VertexID
		adj     [][]VertexID
	}{
		{"asymmetric", []VertexID{0, 1}, [][]VertexID{{1}, nil}},
		{"duplicate-neighbor", []VertexID{0, 1}, [][]VertexID{{1, 1}, {0, 0}}},
		{"self-loop", []VertexID{0}, [][]VertexID{{0}}},
		{"absent-neighbor", []VertexID{0}, [][]VertexID{{5}}},
		{"vertex-twice", []VertexID{0, 0}, [][]VertexID{nil}},
	}
	for _, tc := range cases {
		if _, err := RestoreAdjacency(tc.present, tc.adj); err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
	}
}
