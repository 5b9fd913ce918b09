package postprocess

import (
	"math"
	"testing"
	"testing/quick"

	"rslpa/internal/core"
	"rslpa/internal/graph"
	"rslpa/internal/lfr"
	"rslpa/internal/nmi"
	"rslpa/internal/rng"
)

// fixedLabels builds a LabelSeq from a map.
func fixedLabels(m map[uint32][]uint32) LabelSeq {
	return func(v uint32) []uint32 { return m[v] }
}

func TestEdgeWeightsIntersection(t *testing.T) {
	g := graph.New()
	g.AddEdge(1, 2)
	labels := fixedLabels(map[uint32][]uint32{
		1: {7, 7, 8, 9},
		2: {7, 8, 8, 5},
	})
	edges := EdgeWeights(g, labels, Intersection)
	if len(edges) != 1 {
		t.Fatalf("edges: %v", edges)
	}
	// min(2,1) for 7 + min(1,2) for 8 = 2; / 4 = 0.5
	if math.Abs(edges[0].W-0.5) > 1e-12 {
		t.Fatalf("weight = %v, want 0.5", edges[0].W)
	}
}

func TestEdgeWeightsSameLabelProbability(t *testing.T) {
	g := graph.New()
	g.AddEdge(1, 2)
	labels := fixedLabels(map[uint32][]uint32{
		1: {7, 7, 8, 9},
		2: {7, 8, 8, 5},
	})
	edges := EdgeWeights(g, labels, SameLabelProbability)
	// (2*1 + 1*2) / 16 = 0.25
	if math.Abs(edges[0].W-0.25) > 1e-12 {
		t.Fatalf("weight = %v, want 0.25", edges[0].W)
	}
}

func TestEdgeWeightsIdenticalSequencesScoreOne(t *testing.T) {
	g := graph.New()
	g.AddEdge(0, 1)
	labels := fixedLabels(map[uint32][]uint32{
		0: {3, 3, 4, 5, 5},
		1: {3, 3, 4, 5, 5},
	})
	edges := EdgeWeights(g, labels, Intersection)
	if math.Abs(edges[0].W-1) > 1e-12 {
		t.Fatalf("identical sequences: w = %v", edges[0].W)
	}
}

func TestEdgeWeightsSymmetricAndBounded(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		g := graph.New()
		m := make(map[uint32][]uint32)
		for v := uint32(0); v < 10; v++ {
			seq := make([]uint32, 11)
			for i := range seq {
				seq[i] = uint32(r.Intn(6))
			}
			m[v] = seq
		}
		for i := 0; i < 15; i++ {
			g.AddEdge(uint32(r.Intn(10)), uint32(r.Intn(10)))
		}
		for _, metric := range []WeightMetric{Intersection, SameLabelProbability} {
			for _, e := range EdgeWeights(g, fixedLabels(m), metric) {
				if e.W < 0 || e.W > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTau2OfMinMaxRule(t *testing.T) {
	edges := []WeightedEdge{
		{U: 1, V: 2, W: 0.9},
		{U: 2, V: 3, W: 0.4},
		{U: 3, V: 4, W: 0.7},
	}
	// max per vertex: 1:0.9, 2:0.9, 3:0.7, 4:0.7 -> min = 0.7
	if got := Tau2Of(edges); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("tau2 = %v", got)
	}
	if Tau2Of(nil) != 0 {
		t.Fatal("tau2 of empty edge set")
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(6)
	if _, merged := uf.Union(0, 1); !merged {
		t.Fatal("first union")
	}
	if _, merged := uf.Union(1, 0); merged {
		t.Fatal("re-union reported merge")
	}
	uf.Union(2, 3)
	uf.Union(0, 3)
	if uf.Find(2) != uf.Find(1) {
		t.Fatal("transitive union broken")
	}
	if uf.SizeOf(0) != 4 {
		t.Fatalf("size = %d", uf.SizeOf(0))
	}
	if uf.Find(4) == uf.Find(0) {
		t.Fatal("separate sets merged")
	}
	roots := map[int]bool{}
	for i := 0; i < 6; i++ {
		roots[uf.Find(i)] = true
	}
	if len(roots) != 3 { // {0,1,2,3}, {4}, {5}
		t.Fatalf("%d components, want 3", len(roots))
	}
}

func TestUnionFindMatchesNaive(t *testing.T) {
	check := func(pairs []uint16) bool {
		const n = 24
		uf := NewUnionFind(n)
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
		}
		for _, p := range pairs {
			a, b := int(p%n), int((p/n)%n)
			uf.Union(a, b)
			adj[a][b], adj[b][a] = true, true
		}
		// Naive reachability via BFS.
		comp := make([]int, n)
		for i := range comp {
			comp[i] = -1
		}
		next := 0
		for s := 0; s < n; s++ {
			if comp[s] >= 0 {
				continue
			}
			queue := []int{s}
			comp[s] = next
			for len(queue) > 0 {
				u := queue[0]
				queue = queue[1:]
				for v := 0; v < n; v++ {
					if adj[u][v] && comp[v] < 0 {
						comp[v] = next
						queue = append(queue, v)
					}
				}
			}
			next++
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if (comp[a] == comp[b]) != (uf.Find(a) == uf.Find(b)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// twoCliques returns a graph of two 4-cliques joined by one bridge, with
// hand-made label sequences that make intra-clique weights high.
func twoCliques() (*graph.Graph, LabelSeq) {
	g := graph.New()
	cl := func(vs ...uint32) {
		for i := range vs {
			for j := i + 1; j < len(vs); j++ {
				g.AddEdge(vs[i], vs[j])
			}
		}
	}
	cl(0, 1, 2, 3)
	cl(4, 5, 6, 7)
	g.AddEdge(3, 4)
	m := make(map[uint32][]uint32)
	for v := uint32(0); v < 4; v++ {
		m[v] = []uint32{1, 1, 1, 2}
	}
	for v := uint32(4); v < 8; v++ {
		m[v] = []uint32{5, 5, 5, 6}
	}
	return g, fixedLabels(m)
}

func TestExtractTwoCliques(t *testing.T) {
	g, labels := twoCliques()
	res, err := Extract(g, labels, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strong != 2 {
		t.Fatalf("strong = %d (tau1=%.3f tau2=%.3f)", res.Strong, res.Tau1, res.Tau2)
	}
	canon := res.Cover.Canonical()
	if len(canon[0]) != 4 || len(canon[1]) != 4 {
		t.Fatalf("communities: %v", canon)
	}
}

func TestExtractFixedThresholds(t *testing.T) {
	g, labels := twoCliques()
	res, err := Extract(g, labels, Config{Tau1: 0.9, Tau2: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tau1 != 0.9 || res.Tau2 != 0.5 {
		t.Fatal("fixed thresholds ignored")
	}
	if res.Strong != 2 {
		t.Fatalf("strong = %d", res.Strong)
	}
}

func TestExtractRejectsInvertedThresholds(t *testing.T) {
	g, labels := twoCliques()
	if _, err := Extract(g, labels, Config{Tau1: 0.1, Tau2: 0.5}); err == nil {
		t.Fatal("tau1 < tau2 accepted")
	}
}

func TestExtractEmptyGraph(t *testing.T) {
	res, err := Extract(graph.New(), fixedLabels(nil), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cover.Len() != 0 {
		t.Fatal("empty graph produced communities")
	}
}

func TestWeakAttachmentCreatesOverlap(t *testing.T) {
	// Star of two triangles plus a middle vertex weakly similar to both.
	g := graph.New()
	cl := func(vs ...uint32) {
		for i := range vs {
			for j := i + 1; j < len(vs); j++ {
				g.AddEdge(vs[i], vs[j])
			}
		}
	}
	cl(0, 1, 2)
	cl(4, 5, 6)
	g.AddEdge(3, 0)
	g.AddEdge(3, 4)
	m := map[uint32][]uint32{
		0: {1, 1, 1, 9}, 1: {1, 1, 1, 9}, 2: {1, 1, 1, 9},
		4: {5, 5, 5, 9}, 5: {5, 5, 5, 9}, 6: {5, 5, 5, 9},
		3: {1, 5, 9, 9}, // half-similar to both sides
	}
	res, err := Extract(g, fixedLabels(m), Config{Tau1: 0.9, Tau2: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	member := res.Cover.Membership()
	if len(member[3]) != 2 {
		t.Fatalf("bridge memberships: %v (cover %v)", member[3], res.Cover.Canonical())
	}
	if res.Weak != 2 {
		t.Fatalf("weak = %d", res.Weak)
	}
}

// TestSweepMatchesGrid: the exact sweep must find a threshold whose entropy
// is >= the grid's on real label data.
func TestSweepMatchesGrid(t *testing.T) {
	p := lfr.Default(400)
	p.AvgDeg, p.MaxDeg, p.On = 10, 25, 40
	res, err := lfr.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.Run(res.Graph, core.Config{T: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	edges := EdgeWeights(st.Graph(), st.Labels, Intersection)
	exact, err := ExtractFromWeights(st.Graph(), edges, Config{})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := ExtractFromWeights(st.Graph(), edges, Config{GridStep: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Entropy < grid.Entropy-1e-9 {
		t.Fatalf("exact sweep entropy %.6f below grid %.6f", exact.Entropy, grid.Entropy)
	}
	// Near-tied entropy peaks can put the two argmaxes at different
	// weights, but the grid cannot be more than one step better anywhere,
	// so the achieved entropies must be close.
	if grid.Entropy < exact.Entropy-0.2 {
		t.Fatalf("grid entropy %.4f far below exact %.4f", grid.Entropy, exact.Entropy)
	}
}

// TestEndToEndLFRQuality: the complete pipeline must recover planted
// communities with high NMI (this is the paper's central quality claim at
// small scale).
func TestEndToEndLFRQuality(t *testing.T) {
	p := lfr.Default(1000)
	p.AvgDeg, p.MaxDeg, p.On = 12, 36, 100
	res, err := lfr.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.Run(res.Graph, core.Config{T: 150, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	pp, err := Extract(st.Graph(), st.Labels, Config{})
	if err != nil {
		t.Fatal(err)
	}
	score := nmi.Compare(pp.Cover, res.Truth, p.N)
	if score < 0.6 {
		t.Fatalf("end-to-end NMI %.3f below 0.6 (tau1=%.3f strong=%d)", score, pp.Tau1, pp.Strong)
	}
}

// TestReduceForestPreservesThresholdConnectivity is the invariant the
// distributed gather rests on: for any threshold τ ≥ τ₂, filtering the
// forest at τ yields exactly the components of filtering the full edge set
// at τ.
func TestReduceForestPreservesThresholdConnectivity(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		const n = 30
		edges := make([]WeightedEdge, 0, 60)
		for i := 0; i < 60; i++ {
			u, v := uint32(r.Intn(n)), uint32(r.Intn(n))
			if u == v {
				continue
			}
			// Coarse weights force plenty of ties.
			edges = append(edges, WeightedEdge{U: u, V: v, W: float64(r.Intn(8)) / 8})
		}
		tau2 := float64(r.Intn(4)) / 8
		forest := ReduceForestBy(edges,
			func(e WeightedEdge) bool { return e.W >= tau2 },
			func(a, b WeightedEdge) bool { return a.W > b.W },
			func(e WeightedEdge) (uint32, uint32) { return e.U, e.V })
		if len(forest) >= n {
			return false // a forest of ≤ n vertices has < n edges
		}
		for _, e := range forest {
			if e.W < tau2 {
				return false
			}
		}
		components := func(set []WeightedEdge, tau float64) *UnionFind {
			uf := NewUnionFind(n)
			for _, e := range set {
				if e.W >= tau {
					uf.Union(int(e.U), int(e.V))
				}
			}
			return uf
		}
		for _, tau := range []float64{tau2, tau2 + 0.125, 0.5, 0.75, 1} {
			if tau < tau2 {
				continue
			}
			full, red := components(edges, tau), components(forest, tau)
			for a := 0; a < n; a++ {
				for b := a + 1; b < n; b++ {
					if (full.Find(a) == full.Find(b)) != (red.Find(a) == red.Find(b)) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSelectTau1Exported pins the exported τ₁ selection (ChooseTau1's exact
// sweep, as the distributed master calls it) on two triples joined by a
// light bridge.
func TestSelectTau1Exported(t *testing.T) {
	edges := []WeightedEdge{
		{U: 0, V: 1, W: 0.9}, {U: 1, V: 2, W: 0.9},
		{U: 3, V: 4, W: 0.8}, {U: 4, V: 5, W: 0.8},
		{U: 2, V: 3, W: 0.1}, // bridge
	}
	tau1 := ChooseTau1(edges, 6, 0.05, MaxWeight(edges), Config{})
	// Entropy at 0.8: both halves together... at 0.9: one 3-community; at
	// 0.8: 6-vertex; at 0.1: everything one comp. Max entropy keeps the
	// two triples separate.
	if tau1 != 0.8 && tau1 != 0.9 {
		t.Fatalf("tau1 = %v", tau1)
	}
	uf := NewUnionFind(6)
	for _, e := range edges {
		if e.W >= tau1 {
			uf.Union(int(e.U), int(e.V))
		}
	}
	if uf.Find(0) == uf.Find(5) {
		t.Fatal("selected threshold merges the two communities")
	}
}
