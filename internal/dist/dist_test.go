package dist

import (
	"fmt"
	"reflect"
	"testing"

	"rslpa/internal/cluster"
	"rslpa/internal/core"
	"rslpa/internal/dynamic"
	"rslpa/internal/graph"
	"rslpa/internal/lfr"
	"rslpa/internal/nmi"
	"rslpa/internal/postprocess"
	"rslpa/internal/slpa"
	"rslpa/internal/webgraph"
)

func lfrFixture(t *testing.T) *graph.Graph {
	t.Helper()
	p := lfr.Default(300)
	p.Seed = 11
	res, err := lfr.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return res.Graph
}

func webFixture(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := webgraph.Generate(webgraph.Default(400))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newEngine(t *testing.T, workers int) *cluster.Engine {
	t.Helper()
	eng, err := cluster.New(cluster.Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// requireSameStats asserts distributed UpdateStats match the sequential
// ones on every mode-independent field, and that the distributed RoundsRun
// (the only schedule-dependent field: actual BSP supersteps, where the
// sequential engine counts one pass per non-idle level) is exactly what
// the push schedule costs: the apply round, the record-fixup round and one
// round per non-idle level.
// updateRoundsFixed is the push schedule's per-batch overhead in rounds:
// the apply/repick round and the record-fixup round.
const updateRoundsFixed = 2

func requireSameStats(t *testing.T, ss, ds core.UpdateStats, T int) {
	t.Helper()
	if ss.RoundsRun == 0 {
		// No-dirt batch: both counters are defined as zero in every mode.
		if ds.RoundsRun != 0 {
			t.Fatalf("distributed RoundsRun = %d for a batch that dirtied nothing", ds.RoundsRun)
		}
	} else if active := T - ss.LevelsSkipped; ds.RoundsRun != active+updateRoundsFixed {
		t.Fatalf("distributed RoundsRun = %d, want %d active levels + %d",
			ds.RoundsRun, active, updateRoundsFixed)
	}
	ds.RoundsRun = ss.RoundsRun
	if !reflect.DeepEqual(ss, ds) {
		t.Fatalf("stats: sequential %+v, distributed %+v", ss, ds)
	}
}

// requireSameLabels asserts the distributed label matrix is bit-identical
// to the sequential one over every vertex of g.
func requireSameLabels(t *testing.T, g *graph.Graph, seq *core.State, d *RSLPA) {
	t.Helper()
	g.ForEachVertex(func(v uint32) {
		a, b := seq.Labels(v), d.Labels(v)
		if len(a) != len(b) {
			t.Fatalf("vertex %d: sequence lengths %d vs %d", v, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d slot %d: sequential %d, distributed %d", v, i, a[i], b[i])
			}
		}
	})
}

// TestPropagateMatchesSequential is the core equivalence claim: for LFR and
// webgraph fixtures, NewRSLPA+Propagate+Postprocess produces the same label
// matrix and the same cover as core.Run+postprocess.Extract with the same
// seed, for Workers ∈ {1, 2, 4}.
func TestPropagateMatchesSequential(t *testing.T) {
	fixtures := map[string]*graph.Graph{"lfr": lfrFixture(t), "web": webFixture(t)}
	for name, g := range fixtures {
		for _, workers := range []int{1, 2, 4} {
			t.Run(name+"/"+string(rune('0'+workers))+"workers", func(t *testing.T) {
				cfg := core.Config{T: 60, Seed: 42}
				seq, err := core.Run(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				pp, err := postprocess.Extract(seq.Graph(), seq.Labels, postprocess.Config{})
				if err != nil {
					t.Fatal(err)
				}

				eng := newEngine(t, workers)
				d, err := NewRSLPA(eng, g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := d.Propagate(); err != nil {
					t.Fatal(err)
				}
				requireSameLabels(t, g, seq, d)

				dp, err := Postprocess(eng, d, postprocess.Config{})
				if err != nil {
					t.Fatal(err)
				}
				if dp.Tau1 != pp.Tau1 || dp.Tau2 != pp.Tau2 {
					t.Fatalf("thresholds: distributed (%v, %v), sequential (%v, %v)",
						dp.Tau1, dp.Tau2, pp.Tau1, pp.Tau2)
				}
				if dp.Strong != pp.Strong || dp.Weak != pp.Weak || dp.Entropy != pp.Entropy {
					t.Fatalf("summary: distributed %+v, sequential %+v",
						[3]interface{}{dp.Strong, dp.Weak, dp.Entropy},
						[3]interface{}{pp.Strong, pp.Weak, pp.Entropy})
				}
				if got := nmi.Compare(dp.Cover, pp.Cover, g.NumVertices()); got < 0.9999 {
					t.Fatalf("cover NMI vs sequential = %v", got)
				}
			})
		}
	}
}

// TestUpdateMatchesSequentialAndRecompute drives incremental repair: after a
// dynamic batch, the distributed state must match both the sequentially
// updated state and (distributionally, via the exact same streams) the
// sequential implementation's own invariant tests already cover recompute
// equivalence — here we assert dist == seq on labels, covers and stats.
func TestUpdateMatchesSequential(t *testing.T) {
	g := webFixture(t)
	cfg := core.Config{T: 50, Seed: 7}
	for _, workers := range []int{1, 3} {
		seq, err := core.Run(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng := newEngine(t, workers)
		d, err := NewRSLPA(eng, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Propagate(); err != nil {
			t.Fatal(err)
		}

		// Three consecutive batches so epochs advance past 1.
		work := g.Clone()
		for i := 0; i < 3; i++ {
			batch, err := dynamic.Batch(work, 60, uint64(100+i))
			if err != nil {
				t.Fatal(err)
			}
			work.Apply(batch)
			ss := seq.Update(batch)
			ds, err := d.Update(batch)
			if err != nil {
				t.Fatal(err)
			}
			requireSameStats(t, ss, ds, cfg.T)
			requireSameLabels(t, work, seq, d)
		}

		// Post-processing after updates must also agree.
		pp, err := postprocess.Extract(seq.Graph(), seq.Labels, postprocess.Config{})
		if err != nil {
			t.Fatal(err)
		}
		dp, err := Postprocess(eng, d, postprocess.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got := nmi.Compare(dp.Cover, pp.Cover, work.NumVertices()); got < 0.9999 {
			t.Fatalf("workers=%d: post-update cover NMI = %v", workers, got)
		}
	}
}

// TestRemoveVertexDirtyContract pins RemoveVertex's UpdateStats.Dirty
// contract: the removed vertex and all of its former neighbors appear in
// Dirty, and the stats are identical to the distributed engine processing
// the same induced edge-deletion batch (the distributed form of removal —
// the paper handles vertex deletion as deleting the incident edges and
// then ignoring the vertex). Extends the requireSameStats pin to the
// removal path.
func TestRemoveVertexDirtyContract(t *testing.T) {
	g := lfrFixture(t)
	cfg := core.Config{T: 40, Seed: 9}
	for _, workers := range []int{1, 3} {
		seq, err := core.Run(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng := newEngine(t, workers)
		d, err := NewRSLPA(eng, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Propagate(); err != nil {
			t.Fatal(err)
		}

		// Pick a well-connected vertex and snapshot its neighborhood; the
		// induced batch must match RemoveVertex's own construction order.
		var v uint32
		g.ForEachVertex(func(u uint32) {
			if g.Degree(u) > g.Degree(v) {
				v = u
			}
		})
		nbrs := append([]uint32(nil), seq.Graph().Neighbors(v)...)
		if len(nbrs) < 2 {
			t.Fatalf("fixture vertex %d has degree %d; want >= 2", v, len(nbrs))
		}
		batch := make([]graph.Edit, 0, len(nbrs))
		for _, u := range nbrs {
			batch = append(batch, graph.Edit{Op: graph.Delete, U: v, V: u})
		}

		ss, ok := seq.RemoveVertex(v)
		if !ok {
			t.Fatalf("RemoveVertex(%d) = false", v)
		}
		ds, err := d.Update(batch)
		if err != nil {
			t.Fatal(err)
		}
		requireSameStats(t, ss, ds, cfg.T)

		// Dirty membership contract: v plus every former neighbor.
		inDirty := func(u uint32) bool {
			for _, w := range ss.Dirty {
				if w == u {
					return true
				}
			}
			return false
		}
		if !inDirty(v) {
			t.Fatalf("workers=%d: removed vertex %d missing from Dirty %v", workers, v, ss.Dirty)
		}
		for _, u := range nbrs {
			if !inDirty(u) {
				t.Fatalf("workers=%d: former neighbor %d of %d missing from Dirty %v", workers, u, v, ss.Dirty)
			}
		}

		// The surviving vertices' label matrices still agree bit-for-bit
		// (the distributed graph keeps v as an isolated vertex, which the
		// paper's rule says to ignore).
		requireSameLabels(t, seq.Graph(), seq, d)
		if seq.Graph().HasVertex(v) {
			t.Fatalf("sequential graph still has removed vertex %d", v)
		}
	}
}

// TestRemoveIsolatedVertexDirtyContract pins the isolated-vertex corner of
// the Dirty contract on BOTH engines: removing a vertex with no neighbors
// induces an empty edge-deletion batch, yet its shard presence bit flips —
// Dirty must still carry the vertex (nil Dirty here made COW snapshots keep
// serving it). The distributed RemoveVertex must mirror the sequential one
// stat-for-stat and keep the label matrices bit-identical.
func TestRemoveIsolatedVertexDirtyContract(t *testing.T) {
	g := lfrFixture(t)
	iso := uint32(g.MaxVertexID() + 3)
	g.AddVertex(iso)
	cfg := core.Config{T: 30, Seed: 9}
	for _, workers := range []int{1, 3} {
		seq, err := core.Run(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng := newEngine(t, workers)
		d, err := NewRSLPA(eng, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Propagate(); err != nil {
			t.Fatal(err)
		}

		ss, ok := seq.RemoveVertex(iso)
		if !ok {
			t.Fatalf("sequential RemoveVertex(%d) = false", iso)
		}
		ds, ok, err := d.RemoveVertex(iso)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("distributed RemoveVertex(%d) = false", iso)
		}
		requireSameStats(t, ss, ds, cfg.T)
		if len(ss.Dirty) != 1 || ss.Dirty[0] != iso {
			t.Fatalf("workers=%d: isolated removal Dirty = %v, want [%d]", workers, ss.Dirty, iso)
		}
		if d.Graph().HasVertex(iso) || d.Labels(iso) != nil {
			t.Fatalf("workers=%d: distributed engine still serves removed vertex %d", workers, iso)
		}
		requireSameLabels(t, seq.Graph(), seq, d)

		// AddVertex mirrors too: presence-only change, Dirty = [v].
		as, ok := seq.AddVertex(iso)
		if !ok || len(as.Dirty) != 1 || as.Dirty[0] != iso {
			t.Fatalf("sequential AddVertex stats = %+v ok=%v", as, ok)
		}
		das, ok := d.AddVertex(iso)
		if !ok || !reflect.DeepEqual(as, das) {
			t.Fatalf("workers=%d: distributed AddVertex stats %+v ok=%v, want %+v", workers, das, ok, as)
		}
		if d.Labels(iso) == nil || seq.Labels(iso) == nil {
			t.Fatal("re-added isolated vertex has no labels")
		}
		requireSameLabels(t, seq.Graph(), seq, d)
	}
}

// TestUpdatePostprocessMatchesRecompute checks the paper's central dynamic
// claim end-to-end on the distributed driver: after a dynamic batch,
// Update+Postprocess recovers the same community structure as a full
// recompute on the mutated graph. Exact equality holds against the
// sequentially-updated state (asserted bit-for-bit elsewhere); against an
// independently seeded from-scratch run the guarantee is distributional
// (core's TestIncrementalMatchesScratchDistribution pins it), so here the
// covers must agree to high NMI on the planted LFR structure. All inputs
// are seeded — the comparison is deterministic.
func TestUpdatePostprocessMatchesRecompute(t *testing.T) {
	g := lfrFixture(t)
	cfg := core.Config{T: 200, Seed: 1}
	eng := newEngine(t, 4)
	d, err := NewRSLPA(eng, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Propagate(); err != nil {
		t.Fatal(err)
	}
	batch, err := dynamic.Batch(g.Clone(), 40, 51)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Update(batch); err != nil {
		t.Fatal(err)
	}
	dp, err := Postprocess(eng, d, postprocess.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mut := g.Clone()
	mut.Apply(batch)
	scratch, err := core.Run(mut, core.Config{T: 200, Seed: 1000}) // independent randomness
	if err != nil {
		t.Fatal(err)
	}
	sp, err := postprocess.Extract(scratch.Graph(), scratch.Labels, postprocess.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := nmi.Compare(dp.Cover, sp.Cover, mut.NumVertices()); got < 0.6 {
		t.Fatalf("incremental vs from-scratch cover NMI = %v, want >= 0.6", got)
	}
}

// TestUpdateEmptyBatch asserts an empty batch is a complete no-op: no
// repicks, no messages, unchanged labels.
func TestUpdateEmptyBatch(t *testing.T) {
	g := lfrFixture(t)
	cfg := core.Config{T: 40, Seed: 3}
	seq, err := core.Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngine(t, 3)
	d, err := NewRSLPA(eng, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Propagate(); err != nil {
		t.Fatal(err)
	}
	stats, err := d.Update(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stats, core.UpdateStats{}) {
		t.Fatalf("empty batch did work: %+v", stats)
	}
	if d.LastUpdate.Messages != 0 {
		t.Fatalf("empty batch moved %d messages", d.LastUpdate.Messages)
	}
	seq.Update(nil)
	requireSameLabels(t, g, seq, d)
}

// TestUpdateBoundaryBatch forces every edit to cross a partition boundary
// (endpoints owned by different workers) plus new-vertex insertions, and
// asserts equivalence with the sequential update.
func TestUpdateBoundaryBatch(t *testing.T) {
	g := lfrFixture(t)
	cfg := core.Config{T: 40, Seed: 5}
	const workers = 4
	eng := newEngine(t, workers)
	part := cluster.Partitioner{P: workers}

	// Build a batch of cross-boundary edits only: deletions of existing
	// boundary edges and insertions of absent boundary pairs, plus an edge
	// to a brand-new vertex ID.
	var batch []graph.Edit
	deleted := 0
	g.ForEachEdge(func(u, v uint32) {
		if deleted < 10 && part.Owner(u) != part.Owner(v) {
			batch = append(batch, graph.Edit{Op: graph.Delete, U: u, V: v})
			deleted++
		}
	})
	if deleted == 0 {
		t.Fatal("fixture has no boundary edges")
	}
	inserted := 0
	for u := uint32(0); u < 40 && inserted < 10; u++ {
		for v := u + 1; v < 60 && inserted < 10; v++ {
			if part.Owner(u) != part.Owner(v) && !g.HasEdge(u, v) {
				batch = append(batch, graph.Edit{Op: graph.Insert, U: u, V: v})
				inserted++
			}
		}
	}
	fresh := uint32(g.MaxVertexID() + 5)
	batch = append(batch, graph.Edit{Op: graph.Insert, U: 0, V: fresh})

	seq, err := core.Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewRSLPA(eng, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Propagate(); err != nil {
		t.Fatal(err)
	}
	ss := seq.Update(batch)
	ds, err := d.Update(batch)
	if err != nil {
		t.Fatal(err)
	}
	requireSameStats(t, ss, ds, cfg.T)
	work := g.Clone()
	work.Apply(batch)
	requireSameLabels(t, work, seq, d)
	if d.Labels(fresh) == nil {
		t.Fatal("no labels for the freshly inserted vertex")
	}
}

// TestPropagateStatsAccounting pins the cost model: Rounds equals the
// configured T, Messages = 2|V| per iteration (request+reply), and the
// engine totals strictly accumulate across Propagate and Update.
func TestPropagateStatsAccounting(t *testing.T) {
	g := lfrFixture(t)
	cfg := core.Config{T: 25, Seed: 2}
	for _, workers := range []int{2, 4} {
		eng := newEngine(t, workers)
		d, err := NewRSLPA(eng, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Propagate(); err != nil {
			t.Fatal(err)
		}
		ps := d.PropagateStats
		if ps.Rounds != int64(cfg.T) {
			t.Fatalf("PropagateStats.Rounds = %d, want T = %d", ps.Rounds, cfg.T)
		}
		wantMsgs := int64(2 * cfg.T * g.NumVertices())
		if ps.Messages != wantMsgs {
			t.Fatalf("PropagateStats.Messages = %d, want 2*T*|V| = %d", ps.Messages, wantMsgs)
		}
		// Each iteration moves one request (2-word payload) and one reply
		// (1-word payload) per vertex.
		reqSize := int64(cluster.Message{Payload: make([]uint32, 2)}.WireSize())
		repSize := int64(cluster.Message{Payload: make([]uint32, 1)}.WireSize())
		if want := int64(cfg.T*g.NumVertices()) * (reqSize + repSize); ps.Bytes != want {
			t.Fatalf("PropagateStats.Bytes = %d, want %d", ps.Bytes, want)
		}

		afterPropagate := eng.Stats()
		batch, err := dynamic.Batch(g.Clone(), 40, 9)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Update(batch); err != nil {
			t.Fatal(err)
		}
		afterUpdate := eng.Stats()
		if afterUpdate.Messages <= afterPropagate.Messages || afterUpdate.Bytes <= afterPropagate.Bytes {
			t.Fatalf("engine stats did not accumulate: %+v -> %+v", afterPropagate, afterUpdate)
		}
		if d.LastUpdate.Messages == 0 || d.LastUpdate.Bytes == 0 {
			t.Fatalf("LastUpdate empty after a non-trivial batch: %+v", d.LastUpdate)
		}
	}
}

// TestSLPAMatchesSequential asserts the distributed SLPA memories are
// bit-identical to slpa.Propagate, and the extracted covers match.
func TestSLPAMatchesSequential(t *testing.T) {
	g := lfrFixture(t)
	cfg := slpa.Config{T: 30, Tau: 0.2, Seed: 13}
	mem, err := slpa.Propagate(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		eng := newEngine(t, workers)
		d, err := NewSLPA(eng, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Propagate(); err != nil {
			t.Fatal(err)
		}
		got := d.Memories()
		if len(got) != len(mem) {
			t.Fatalf("memories length %d vs %d", len(got), len(mem))
		}
		for v := range mem {
			if len(mem[v]) != len(got[v]) {
				t.Fatalf("vertex %d memory length %d vs %d", v, len(got[v]), len(mem[v]))
			}
			for i := range mem[v] {
				if mem[v][i] != got[v][i] {
					t.Fatalf("workers=%d vertex %d slot %d: %d vs %d", workers, v, i, got[v][i], mem[v][i])
				}
			}
		}
		seqCover := slpa.ExtractCover(g, mem, cfg)
		dstCover := slpa.ExtractCover(g, got, cfg)
		if got := nmi.Compare(seqCover, dstCover, g.NumVertices()); got < 0.9999 {
			t.Fatalf("SLPA cover NMI = %v", got)
		}
		if ds := d.PropagateStats; ds.Rounds != int64(cfg.T) || ds.Messages != int64(2*cfg.T*g.NumEdges()) {
			t.Fatalf("SLPA stats %+v, want Rounds=%d Messages=%d", ds, cfg.T, 2*cfg.T*g.NumEdges())
		}
	}
}

// requireSameResult asserts two extraction Results agree exactly on every
// scalar and to near-perfect NMI on the cover.
func requireSameResult(t *testing.T, n int, got, want *postprocess.Result) {
	t.Helper()
	if got.Tau1 != want.Tau1 || got.Tau2 != want.Tau2 {
		t.Fatalf("thresholds: distributed (%v, %v), sequential (%v, %v)",
			got.Tau1, got.Tau2, want.Tau1, want.Tau2)
	}
	if got.Strong != want.Strong || got.Weak != want.Weak || got.Entropy != want.Entropy {
		t.Fatalf("summary: distributed %+v, sequential %+v",
			[3]interface{}{got.Strong, got.Weak, got.Entropy},
			[3]interface{}{want.Strong, want.Weak, want.Entropy})
	}
	if s := nmi.Compare(got.Cover, want.Cover, n); s < 0.9999 {
		t.Fatalf("cover NMI vs sequential = %v", s)
	}
}

// TestPostprocessMatchesSequentialMatrix is the acceptance matrix for the
// rebuilt distributed post-processing: for P ∈ {1, 2, 3, 7} on both
// transports, and for every selection mode (entropy sweep, grid
// enumeration, fixed thresholds) plus both weight metrics, the RLE-shipped,
// tree-reduced, partition-swept pipeline must reproduce the sequential
// postprocess.Extract bit for bit.
func TestPostprocessMatchesSequentialMatrix(t *testing.T) {
	g := lfrFixture(t)
	cfg := core.Config{T: 40, Seed: 23}
	seq, err := core.Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ppCfgs := map[string]postprocess.Config{
		"sweep": {},
		"grid":  {GridStep: 0.01},
		"fixed": {Tau1: 0.6, Tau2: 0.05},
		"prob":  {Metric: postprocess.SameLabelProbability},
	}
	for name, ppCfg := range ppCfgs {
		want, err := postprocess.Extract(seq.Graph(), seq.Labels, ppCfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []cluster.TransportKind{cluster.Local, cluster.TCP} {
			for _, workers := range []int{1, 2, 3, 7} {
				t.Run(fmt.Sprintf("%s/%s/%dworkers", name, kind, workers), func(t *testing.T) {
					eng, err := cluster.New(cluster.Config{Workers: workers, Transport: kind})
					if err != nil {
						t.Fatal(err)
					}
					defer eng.Close()
					d, err := NewRSLPA(eng, g, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := d.Propagate(); err != nil {
						t.Fatal(err)
					}
					dp, err := Postprocess(eng, d, ppCfg)
					if err != nil {
						t.Fatal(err)
					}
					requireSameResult(t, g.NumVertices(), dp, want)
					if workers > 1 && d.LastPostprocess.Messages == 0 {
						t.Fatal("multi-worker postprocess moved no messages")
					}
				})
			}
		}
	}
}

// TestPostprocessWireReduction pins the acceptance criterion: on a
// fig8-scale LFR graph the rebuilt pipeline must move at least 5x fewer
// postprocess bytes than per-label shipping plus the all-to-master weight
// funnel did.
func TestPostprocessWireReduction(t *testing.T) {
	p := lfr.Default(2000)
	p.AvgDeg, p.MaxDeg, p.On, p.Seed = 15, 50, 200, 8
	res, err := lfr.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	const workers = 4
	cfg := core.Config{T: 200, Seed: 4}
	eng := newEngine(t, workers)
	d, err := NewRSLPA(eng, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Propagate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Postprocess(eng, d, postprocess.Config{}); err != nil {
		t.Fatal(err)
	}
	naive := NaivePostprocessBytes(g, cluster.Partitioner{P: workers}, cfg.T)
	got := d.LastPostprocess.Bytes
	if got == 0 {
		t.Fatal("postprocess reported zero wire bytes")
	}
	if ratio := float64(naive) / float64(got); ratio < 5 {
		t.Fatalf("postprocess wire reduction %.1fx (naive %d B, got %d B), want >= 5x",
			ratio, naive, got)
	}
}

// TestDriverValidation covers the constructor and sequencing guards.
func TestDriverValidation(t *testing.T) {
	g := graph.New()
	g.AddEdge(0, 1)
	eng := newEngine(t, 2)
	if _, err := NewRSLPA(nil, g, core.Config{T: 5}); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := NewRSLPA(eng, g, core.Config{T: 0}); err == nil {
		t.Fatal("T=0 accepted")
	}
	if _, err := NewSLPA(eng, g, slpa.Config{T: 0}); err == nil {
		t.Fatal("slpa T=0 accepted")
	}
	d, err := NewRSLPA(eng, g, core.Config{T: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Update(nil); err == nil {
		t.Fatal("Update before Propagate accepted")
	}
	if _, err := Postprocess(eng, d, postprocess.Config{}); err == nil {
		t.Fatal("Postprocess before Propagate accepted")
	}
	if err := d.Propagate(); err != nil {
		t.Fatal(err)
	}
	if err := d.Propagate(); err == nil {
		t.Fatal("second Propagate accepted")
	}
	other := newEngine(t, 2)
	if _, err := Postprocess(other, d, postprocess.Config{}); err == nil {
		t.Fatal("foreign engine accepted")
	}
	if d.Labels(99) != nil {
		t.Fatal("labels for absent vertex")
	}
}

// TestOverTCP runs the full pipeline over loopback sockets to prove the
// drivers survive a real network stack.
func TestOverTCP(t *testing.T) {
	g := lfrFixture(t)
	cfg := core.Config{T: 20, Seed: 21}
	seq, err := core.Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cluster.New(cluster.Config{Workers: 3, Transport: cluster.TCP})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	d, err := NewRSLPA(eng, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Propagate(); err != nil {
		t.Fatal(err)
	}
	batch, err := dynamic.Batch(g.Clone(), 30, 17)
	if err != nil {
		t.Fatal(err)
	}
	work := g.Clone()
	work.Apply(batch)
	seq.Update(batch)
	if _, err := d.Update(batch); err != nil {
		t.Fatal(err)
	}
	requireSameLabels(t, work, seq, d)
	if _, err := Postprocess(eng, d, postprocess.Config{}); err != nil {
		t.Fatal(err)
	}
}
