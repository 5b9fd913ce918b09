package core

import (
	"slices"
	"testing"
	"testing/quick"

	"rslpa/internal/graph"
	"rslpa/internal/rng"
)

// ring builds a cycle of n vertices.
func ring(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddEdge(uint32(i), uint32((i+1)%n))
	}
	return g
}

// randomGraph builds an Erdős–Rényi-ish graph with n vertices and ~m edges.
func randomGraph(n, m int, seed uint64) *graph.Graph {
	r := rng.New(seed)
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddVertex(uint32(i))
	}
	for g.NumEdges() < m {
		u := uint32(r.Intn(n))
		v := uint32(r.Intn(n))
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

func mustRun(t *testing.T, g *graph.Graph, cfg Config) *State {
	t.Helper()
	s, err := Run(g, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return s
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(ring(4), Config{T: 0}); err == nil {
		t.Fatal("want error for T=0")
	}
	if _, err := Run(ring(4), Config{T: -3}); err == nil {
		t.Fatal("want error for negative T")
	}
}

func TestRunInvariants(t *testing.T) {
	s := mustRun(t, randomGraph(200, 600, 7), Config{T: 30, Seed: 42})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunLabelSequenceLength(t *testing.T) {
	const T = 17
	s := mustRun(t, ring(10), Config{T: T, Seed: 1})
	for v := uint32(0); v < 10; v++ {
		if got := len(s.Labels(v)); got != T+1 {
			t.Fatalf("vertex %d: sequence length %d, want %d", v, got, T+1)
		}
		if s.Labels(v)[0] != v {
			t.Fatalf("vertex %d: initial label %d", v, s.Labels(v)[0])
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	g := randomGraph(100, 300, 3)
	a := mustRun(t, g, Config{T: 20, Seed: 9})
	b := mustRun(t, g, Config{T: 20, Seed: 9})
	if !a.EqualLabels(b) {
		t.Fatal("same seed must give identical label matrices")
	}
	c := mustRun(t, g, Config{T: 20, Seed: 10})
	if a.EqualLabels(c) {
		t.Fatal("different seeds should (overwhelmingly) differ")
	}
}

func TestIsolatedVertexCollapsesToSelf(t *testing.T) {
	g := graph.New()
	g.AddVertex(5)
	g.AddEdge(1, 2)
	s := mustRun(t, g, Config{T: 10, Seed: 1})
	for _, l := range s.Labels(5) {
		if l != 5 {
			t.Fatalf("isolated vertex label %d, want 5", l)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPickAccessor(t *testing.T) {
	s := mustRun(t, ring(6), Config{T: 5, Seed: 2})
	if _, _, ok := s.Pick(0, 0); ok {
		t.Fatal("t=0 has no pick")
	}
	src, pos, ok := s.Pick(0, 3)
	if !ok {
		t.Fatal("expected a pick at t=3")
	}
	if src != 1 && src != 5 {
		t.Fatalf("src %d is not a ring neighbor of 0", src)
	}
	if pos < 0 || pos >= 3 {
		t.Fatalf("pos %d out of range", pos)
	}
}

func TestUpdateInsertMaintainsInvariants(t *testing.T) {
	g := randomGraph(150, 400, 11)
	s := mustRun(t, g, Config{T: 25, Seed: 5})
	stats := s.Update([]graph.Edit{
		{Op: graph.Insert, U: 0, V: 50},
		{Op: graph.Insert, U: 1, V: 60},
		{Op: graph.Insert, U: 2, V: 70},
	})
	if stats.Inserted == 0 {
		t.Fatal("expected at least one insertion to apply")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateDeleteMaintainsInvariants(t *testing.T) {
	g := randomGraph(150, 400, 13)
	s := mustRun(t, g, Config{T: 25, Seed: 5})
	var batch []graph.Edit
	count := 0
	g.ForEachEdge(func(u, v uint32) {
		if count < 20 {
			batch = append(batch, graph.Edit{Op: graph.Delete, U: u, V: v})
			count++
		}
	})
	stats := s.Update(batch)
	if stats.Deleted != 20 {
		t.Fatalf("deleted %d, want 20", stats.Deleted)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateNoOpBatch(t *testing.T) {
	g := randomGraph(50, 120, 17)
	s := mustRun(t, g, Config{T: 15, Seed: 3})
	before := s.Clone()
	// Deleting absent edges and inserting existing ones must change nothing.
	var existing graph.Edit
	g.ForEachEdge(func(u, v uint32) { existing = graph.Edit{Op: graph.Insert, U: u, V: v} })
	stats := s.Update([]graph.Edit{
		existing,
		{Op: graph.Delete, U: 900, V: 901},
	})
	if stats.Inserted != 0 || stats.Deleted != 0 || stats.Touched != 0 {
		t.Fatalf("no-op batch produced stats %+v", stats)
	}
	if !s.EqualLabels(before) {
		t.Fatal("no-op batch changed labels")
	}
}

func TestUpdateCancellingEditsAreNoOp(t *testing.T) {
	g := randomGraph(50, 120, 19)
	s := mustRun(t, g, Config{T: 15, Seed: 3})
	before := s.Clone()
	stats := s.Update([]graph.Edit{
		{Op: graph.Insert, U: 0, V: 40}, // assume absent; then removed again
		{Op: graph.Delete, U: 0, V: 40},
	})
	if stats.Repicked != 0 || stats.Touched != 0 {
		t.Fatalf("cancelling batch repicked %d touched %d", stats.Repicked, stats.Touched)
	}
	if !s.EqualLabels(before) {
		t.Fatal("cancelling batch changed labels")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateNewVertexViaEdge(t *testing.T) {
	g := ring(10)
	s := mustRun(t, g, Config{T: 12, Seed: 4})
	s.Update([]graph.Edit{{Op: graph.Insert, U: 3, V: 99}})
	if s.Labels(99) == nil {
		t.Fatal("vertex 99 has no labels after insertion")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// The new vertex's picks must all point at its only neighbor.
	for tt := 1; tt <= 12; tt++ {
		src, _, ok := s.Pick(99, tt)
		if !ok || src != 3 {
			t.Fatalf("iter %d: new vertex pick src=%d ok=%v, want 3", tt, src, ok)
		}
	}
}

func TestUpdateVertexLosesAllNeighbors(t *testing.T) {
	g := graph.New()
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	s := mustRun(t, g, Config{T: 10, Seed: 8})
	s.Update([]graph.Edit{
		{Op: graph.Delete, U: 0, V: 1},
		{Op: graph.Delete, U: 0, V: 2},
	})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, l := range s.Labels(0) {
		if l != 0 {
			t.Fatalf("isolated vertex kept foreign label %d", l)
		}
	}
}

func TestAddRemoveVertex(t *testing.T) {
	g := ring(8)
	s := mustRun(t, g, Config{T: 10, Seed: 2})
	st, ok := s.AddVertex(100)
	if !ok {
		t.Fatal("AddVertex(100) = false")
	}
	if len(st.Dirty) != 1 || st.Dirty[0] != 100 {
		t.Fatalf("AddVertex Dirty = %v, want [100]", st.Dirty)
	}
	if _, ok := s.AddVertex(100); ok {
		t.Fatal("second AddVertex(100) = true")
	}
	s.Update([]graph.Edit{
		{Op: graph.Insert, U: 100, V: 0},
		{Op: graph.Insert, U: 100, V: 4},
	})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	rs, ok := s.RemoveVertex(100)
	if !ok {
		t.Fatal("RemoveVertex(100) = false")
	}
	if !slices.Contains(rs.Dirty, 100) {
		t.Fatalf("RemoveVertex Dirty = %v, missing the removed vertex", rs.Dirty)
	}
	if _, ok := s.RemoveVertex(100); ok {
		t.Fatal("second RemoveVertex(100) = true")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Labels(100) != nil {
		t.Fatal("removed vertex still has labels")
	}

	// The isolated-vertex removal path: the induced edge-deletion batch is
	// empty, yet the shard's presence bit changes — Dirty must still carry
	// the vertex or a COW snapshot would keep serving it.
	if _, ok := s.AddVertex(101); !ok {
		t.Fatal("AddVertex(101) = false")
	}
	rs, ok = s.RemoveVertex(101)
	if !ok {
		t.Fatal("RemoveVertex(101) = false")
	}
	if len(rs.Dirty) != 1 || rs.Dirty[0] != 101 {
		t.Fatalf("isolated RemoveVertex Dirty = %v, want [101]", rs.Dirty)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeDirty(t *testing.T) {
	cases := []struct {
		in   []uint32
		v    uint32
		want []uint32
	}{
		{nil, 5, []uint32{5}},
		{[]uint32{5}, 5, []uint32{5}},
		{[]uint32{1, 9}, 5, []uint32{1, 5, 9}},
		{[]uint32{1, 9}, 0, []uint32{0, 1, 9}},
		{[]uint32{1, 9}, 12, []uint32{1, 9, 12}},
	}
	for _, c := range cases {
		if got := MergeDirty(append([]uint32(nil), c.in...), c.v); !slices.Equal(got, c.want) {
			t.Fatalf("MergeDirty(%v, %d) = %v, want %v", c.in, c.v, got, c.want)
		}
	}
}

// TestUpdateInvariantsUnderRandomBatches is the main property test: after
// arbitrary random edit batches, the State must still look like a valid
// Algorithm 1 run on the current graph.
func TestUpdateInvariantsUnderRandomBatches(t *testing.T) {
	g := randomGraph(120, 350, 23)
	s := mustRun(t, g, Config{T: 20, Seed: 6})
	r := rng.New(77)
	for round := 0; round < 15; round++ {
		var batch []graph.Edit
		for i := 0; i < 25; i++ {
			u := uint32(r.Intn(140)) // occasionally new IDs
			v := uint32(r.Intn(140))
			if u == v {
				continue
			}
			op := graph.Insert
			if r.Bool() {
				op = graph.Delete
			}
			batch = append(batch, graph.Edit{Op: op, U: u, V: v})
		}
		s.Update(batch)
		if err := s.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestUpdateQuickProperty drives Update with quick-generated batches.
func TestUpdateQuickProperty(t *testing.T) {
	check := func(seed uint64, ops []uint16) bool {
		g := randomGraph(40, 80, seed)
		s, err := Run(g, Config{T: 12, Seed: seed})
		if err != nil {
			return false
		}
		var batch []graph.Edit
		for _, op := range ops {
			u := uint32(op % 45)
			v := uint32((op / 45) % 45)
			if u == v {
				continue
			}
			kind := graph.Insert
			if op%2 == 0 {
				kind = graph.Delete
			}
			batch = append(batch, graph.Edit{Op: kind, U: u, V: v})
		}
		s.Update(batch)
		return s.Validate() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTheorem4KeptSourceUniform checks the statistical core of Theorem 4:
// after deleting edges, kept+repicked sources are uniform over the
// remaining neighbors. We fix a star graph, delete some leaves, and check
// the empirical source distribution of the center across many seeds.
func TestTheorem4KeptSourceUniform(t *testing.T) {
	const leaves = 10
	const runs = 4000
	counts := make(map[uint32]int)
	for seed := uint64(0); seed < runs; seed++ {
		g := graph.New()
		for i := 1; i <= leaves; i++ {
			g.AddEdge(0, uint32(i))
		}
		s, err := Run(g, Config{T: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		// Delete leaves 1..3; vertices 4..10 remain.
		s.Update([]graph.Edit{
			{Op: graph.Delete, U: 0, V: 1},
			{Op: graph.Delete, U: 0, V: 2},
			{Op: graph.Delete, U: 0, V: 3},
		})
		src, _, ok := s.Pick(0, 1)
		if !ok {
			t.Fatal("center has no pick")
		}
		if src <= 3 {
			t.Fatalf("seed %d: pick kept deleted source %d", seed, src)
		}
		counts[src]++
	}
	// Expect runs/7 per remaining leaf, within 5 sigma of binomial.
	expected := float64(runs) / 7
	sigma := 23.0 // sqrt(runs * p * (1-p)) ≈ 22.1
	for v, c := range counts {
		if diff := float64(c) - expected; diff > 5*sigma || diff < -5*sigma {
			t.Fatalf("source %d picked %d times, expected %.0f ± %.0f", v, c, expected, 5*sigma)
		}
	}
}

// TestTheorem5AddedSourceUniform checks Theorem 5: after adding neighbors,
// the source distribution is uniform over the enlarged neighbor set.
func TestTheorem5AddedSourceUniform(t *testing.T) {
	const runs = 7000
	counts := make(map[uint32]int)
	for seed := uint64(0); seed < runs; seed++ {
		g := graph.New()
		g.AddEdge(0, 1)
		g.AddEdge(0, 2) // center 0 with 2 neighbors
		s, err := Run(g, Config{T: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		s.Update([]graph.Edit{
			{Op: graph.Insert, U: 0, V: 3},
			{Op: graph.Insert, U: 0, V: 4},
			{Op: graph.Insert, U: 0, V: 5},
		}) // now 5 neighbors
		src, _, ok := s.Pick(0, 1)
		if !ok {
			t.Fatal("center has no pick")
		}
		counts[src]++
	}
	expected := float64(runs) / 5
	sigma := 33.5 // sqrt(runs * 0.2 * 0.8)
	for v := uint32(1); v <= 5; v++ {
		c := counts[v]
		if diff := float64(c) - expected; diff > 5*sigma || diff < -5*sigma {
			t.Fatalf("source %d picked %d times, expected %.0f ± %.0f", v, c, expected, 5*sigma)
		}
	}
}

// TestIncrementalMatchesScratchDistribution verifies the headline claim:
// the incremental result is distributed like a from-scratch run. We compare
// the per-(vertex,iteration) marginal label distributions over many seeds
// on a small graph; they must agree within statistical noise.
func TestIncrementalMatchesScratchDistribution(t *testing.T) {
	const runs = 3000
	const T = 6
	base := func() *graph.Graph {
		g := graph.New()
		g.AddEdge(0, 1)
		g.AddEdge(1, 2)
		g.AddEdge(2, 3)
		g.AddEdge(3, 0)
		g.AddEdge(0, 2)
		return g
	}
	batch := []graph.Edit{
		{Op: graph.Delete, U: 0, V: 2},
		{Op: graph.Insert, U: 1, V: 3},
	}
	nVerts := 4
	incCounts := make([]map[uint32]int, nVerts*(T+1))
	scrCounts := make([]map[uint32]int, nVerts*(T+1))
	for i := range incCounts {
		incCounts[i] = make(map[uint32]int)
		scrCounts[i] = make(map[uint32]int)
	}
	for seed := uint64(0); seed < runs; seed++ {
		inc, err := Run(base(), Config{T: T, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		inc.Update(batch)
		g2 := base()
		g2.Apply(batch)
		scr, err := Run(g2, Config{T: T, Seed: seed + 500000}) // independent randomness
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < nVerts; v++ {
			for tt := 0; tt <= T; tt++ {
				incCounts[v*(T+1)+tt][inc.Labels(uint32(v))[tt]]++
				scrCounts[v*(T+1)+tt][scr.Labels(uint32(v))[tt]]++
			}
		}
	}
	// Compare marginals: every label's frequency must agree within 5 sigma
	// of the two-sample binomial difference.
	for i := range incCounts {
		for l := uint32(0); l < uint32(nVerts); l++ {
			pi := float64(incCounts[i][l]) / runs
			ps := float64(scrCounts[i][l]) / runs
			p := (pi + ps) / 2
			se := 5 * sqrt(2*p*(1-p)/runs)
			if diff := pi - ps; diff > se+0.001 || diff < -se-0.001 {
				t.Fatalf("slot %d label %d: incremental %.3f vs scratch %.3f (se %.3f)", i, l, pi, ps, se)
			}
		}
	}
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func TestCloneIsDeep(t *testing.T) {
	g := randomGraph(60, 150, 29)
	s := mustRun(t, g, Config{T: 15, Seed: 12})
	c := s.Clone()
	s.Update([]graph.Edit{{Op: graph.Insert, U: 0, V: 59}})
	if err := c.Validate(); err != nil {
		t.Fatalf("clone corrupted by original's update: %v", err)
	}
}

func TestEpochAdvances(t *testing.T) {
	s := mustRun(t, ring(6), Config{T: 5, Seed: 1})
	if s.Epoch() != 0 {
		t.Fatalf("fresh epoch = %d", s.Epoch())
	}
	s.Update(nil)
	s.Update(nil)
	if s.Epoch() != 2 {
		t.Fatalf("epoch after two updates = %d", s.Epoch())
	}
}

// TestTouchedGrowsWithBatchSize sanity-checks the complexity trend the
// paper's Figure 9 relies on: larger batches touch more labels, but
// sublinearly.
func TestTouchedGrowsWithBatchSize(t *testing.T) {
	g := randomGraph(400, 1600, 31)
	r := rng.New(99)
	makeBatch := func(k int) []graph.Edit {
		var batch []graph.Edit
		edges := g.Edges()
		for i := 0; i < k/2; i++ {
			e := edges[r.Intn(len(edges))]
			u, v := graph.UnpackEdgeKey(e)
			batch = append(batch, graph.Edit{Op: graph.Delete, U: u, V: v})
		}
		for i := 0; i < k/2; i++ {
			batch = append(batch, graph.Edit{Op: graph.Insert, U: uint32(r.Intn(400)), V: uint32(r.Intn(400))})
		}
		return batch
	}
	small := mustRun(t, g, Config{T: 20, Seed: 3}).Update(makeBatch(10))
	large := mustRun(t, g, Config{T: 20, Seed: 3}).Update(makeBatch(200))
	if large.Touched <= small.Touched {
		t.Fatalf("larger batch touched %d <= smaller batch %d", large.Touched, small.Touched)
	}
}

// TestDirtySetContract pins the UpdateStats.Dirty contract the streaming
// layer's copy-on-write publication depends on: nil for a batch that
// changed nothing, sorted and deduplicated otherwise, covering every
// effective-edit endpoint.
func TestDirtySetContract(t *testing.T) {
	g := randomGraph(200, 600, 13)
	s := mustRun(t, g, Config{T: 20, Seed: 7})

	if stats := s.Update(nil); stats.Dirty != nil {
		t.Fatalf("empty batch: Dirty = %v, want nil", stats.Dirty)
	}
	// An all-no-op batch (deleting absent edges) changes nothing either.
	noop := graph.Canonicalize(s.Graph(), []graph.Edit{{Op: graph.Insert, U: 0, V: s.Graph().Neighbors(0)[0]}})
	if len(noop) != 0 {
		t.Fatalf("canonicalization kept a duplicate insert: %v", noop)
	}

	batch := graph.Canonicalize(s.Graph(), []graph.Edit{
		{Op: graph.Insert, U: 3, V: 190},
		{Op: graph.Delete, U: 0, V: s.Graph().Neighbors(0)[0]},
	})
	dirtyOf := make(map[uint32]bool)
	for _, e := range batch {
		dirtyOf[e.U], dirtyOf[e.V] = true, true
	}
	stats := s.Update(batch)
	if stats.Dirty == nil {
		t.Fatal("effective batch produced nil Dirty")
	}
	seen := make(map[uint32]bool, len(stats.Dirty))
	for i, v := range stats.Dirty {
		if i > 0 && stats.Dirty[i-1] >= v {
			t.Fatalf("Dirty not strictly sorted at %d: %v", i, stats.Dirty[:i+1])
		}
		seen[v] = true
	}
	for v := range dirtyOf {
		if !seen[v] {
			t.Fatalf("edit endpoint %d missing from Dirty %v", v, stats.Dirty)
		}
	}
	if uint64(len(stats.Dirty)) > 2*uint64(len(batch))+uint64(stats.Touched) {
		t.Fatalf("Dirty has %d vertices for %d edits touching %d labels", len(stats.Dirty), len(batch), stats.Touched)
	}
}
