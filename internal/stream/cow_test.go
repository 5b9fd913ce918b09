package stream

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rslpa/internal/core"
	"rslpa/internal/graph"
	"rslpa/internal/lfr"
	"rslpa/internal/postprocess"
)

// TestStatsNeverTearsEpochFromBatches hammers Stats from several
// goroutines while the maintenance loop flushes one batch per edit.
// Epoch is recorded in the same critical section as Batches, so a
// reading must never show them apart — the torn-read bug this pins had
// Epoch loaded from the snapshot pointer after the batch counters were
// already bumped. Run under -race, this also exercises the lock
// discipline of the whole Stats path.
func TestStatsNeverTearsEpochFromBatches(t *testing.T) {
	s, _ := newTestService(t, Options{MaxBatch: 1, FlushInterval: time.Hour})
	var (
		stop tornFlag
		wg   sync.WaitGroup
	)
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Done() {
				st := s.Stats()
				if st.Epoch != st.Batches {
					stop.Tear(st.Epoch, st.Batches)
					return
				}
			}
		}()
	}
	// Alternate insert/delete of the same edge: every edit survives
	// coalescing, and MaxBatch=1 turns each into its own flush.
	for i := range 200 {
		op := graph.Insert
		if i%2 == 1 {
			op = graph.Delete
		}
		if err := s.Submit(graph.Edit{Op: op, U: 0, V: 5}); err != nil {
			t.Fatal(err)
		}
	}
	drainVerified(t, s)
	stop.Stop()
	wg.Wait()
	if e, b, torn := stop.Torn(); torn {
		t.Fatalf("Stats tore: Epoch=%d Batches=%d", e, b)
	}
}

// tornFlag is the hammer test's stop flag, doubling as a torn-reading
// report (reader goroutines cannot t.Fatal).
type tornFlag struct {
	done           atomic.Bool
	torn           atomic.Bool
	epoch, batches atomic.Uint64
}

func (f *tornFlag) Done() bool { return f.done.Load() }
func (f *tornFlag) Stop()      { f.done.Store(true) }
func (f *tornFlag) Tear(epoch, batches uint64) {
	f.epoch.Store(epoch)
	f.batches.Store(batches)
	f.torn.Store(true)
	f.done.Store(true)
}
func (f *tornFlag) Torn() (epoch, batches uint64, torn bool) {
	return f.epoch.Load(), f.batches.Load(), f.torn.Load()
}

// TestNewSweepsStaleCheckpointTemps plants an orphan <base>.tmp* file —
// what a crash between CreateTemp and Rename leaves behind — and checks
// New removes it without touching the real checkpoint or unrelated
// files.
func TestNewSweepsStaleCheckpointTemps(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "service.ckpt")
	stale := filepath.Join(dir, "service.ckpt.tmp123456")
	stale2 := filepath.Join(dir, "service.ckpt.tmp7")
	unrelated := filepath.Join(dir, "other.ckpt.tmp1")
	prev := []byte("previous checkpoint")
	for path, data := range map[string][]byte{
		ckpt: prev, stale: []byte("partial"), stale2: []byte("x"), unrelated: []byte("keep"),
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := core.Run(testGraph(), core.Config{T: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(seqDet{st}, Options{FlushInterval: time.Hour, CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, gone := range []string{stale, stale2} {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Fatalf("stale temp %s survived startup (err=%v)", gone, err)
		}
	}
	if _, err := os.Stat(unrelated); err != nil {
		t.Fatalf("unrelated file swept: %v", err)
	}
	if got, err := os.ReadFile(ckpt); err != nil || string(got) != string(prev) {
		t.Fatalf("real checkpoint disturbed: %q, %v", got, err)
	}
}

// TestSnapshotServesVertexDeletedAfterPublish pins the held-snapshot
// contract across vertex deletion: a snapshot taken before RemoveVertex
// keeps serving the vertex's frozen labels and membership, while the
// COW successor reports it absent.
func TestSnapshotServesVertexDeletedAfterPublish(t *testing.T) {
	st, err := core.Run(testGraph(), core.Config{T: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	det := seqDet{st}
	held := newSnapshot(0, det, postprocess.Config{}, core.UpdateStats{})
	wantLabels := append([]uint32(nil), held.Labels(5)...)
	wantDeg := held.Degree(5)

	stats, ok := st.RemoveVertex(5)
	if !ok {
		t.Fatal("RemoveVertex(5) reported absent")
	}
	next := nextSnapshot(held, det, stats.Dirty, stats)

	// The held snapshot is frozen: vertex 5 is still fully served.
	if !held.HasVertex(5) || held.Degree(5) != wantDeg {
		t.Fatalf("held snapshot lost vertex 5: present=%v deg=%d", held.HasVertex(5), held.Degree(5))
	}
	got := held.Labels(5)
	if len(got) != len(wantLabels) {
		t.Fatalf("held labels length %d, want %d", len(got), len(wantLabels))
	}
	for i := range wantLabels {
		if got[i] != wantLabels[i] {
			t.Fatalf("held label %d changed: %d vs %d", i, got[i], wantLabels[i])
		}
	}
	if _, err := held.Membership(5); err != nil {
		t.Fatalf("held Membership(5): %v", err)
	}

	// The successor reflects the deletion.
	if next.HasVertex(5) || next.Degree(5) != 0 || next.Labels(5) != nil {
		t.Fatalf("deleted vertex still in next snapshot: present=%v deg=%d labels=%v",
			next.HasVertex(5), next.Degree(5), next.Labels(5))
	}
	member, err := next.Membership(5)
	if err != nil {
		t.Fatalf("next Membership(5): %v", err)
	}
	if member != nil {
		t.Fatalf("deleted vertex has membership %v", member)
	}
	if next.NumVertices() != held.NumVertices()-1 {
		t.Fatalf("vertex count %d after deletion, held %d", next.NumVertices(), held.NumVertices())
	}
}

// TestSnapshotDropsIsolatedVertexDeletedAfterPublish is the COW corner
// the Dirty contract used to miss: removing an ISOLATED vertex induces an
// empty edge-deletion batch, so before RemoveVertex carried v in Dirty the
// publish saw a nil dirty set with zero work and reused every shard — the
// successor snapshot kept serving the vertex as present.
func TestSnapshotDropsIsolatedVertexDeletedAfterPublish(t *testing.T) {
	st, err := core.Run(testGraph(), core.Config{T: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	det := seqDet{st}
	if _, ok := st.AddVertex(9); !ok {
		t.Fatal("AddVertex(9) reported existing")
	}
	held := newSnapshot(0, det, postprocess.Config{}, core.UpdateStats{})
	if !held.HasVertex(9) {
		t.Fatal("snapshot missing the isolated vertex")
	}

	stats, ok := st.RemoveVertex(9)
	if !ok {
		t.Fatal("RemoveVertex(9) reported absent")
	}
	if len(stats.Dirty) != 1 || stats.Dirty[0] != 9 {
		t.Fatalf("isolated removal Dirty = %v, want [9]", stats.Dirty)
	}
	next := nextSnapshot(held, det, stats.Dirty, stats)

	if !held.HasVertex(9) {
		t.Fatal("held snapshot lost the frozen vertex")
	}
	if next.HasVertex(9) || next.Labels(9) != nil {
		t.Fatalf("COW successor still serves the deleted isolated vertex: present=%v labels=%v",
			next.HasVertex(9), next.Labels(9))
	}
	if next.NumVertices() != held.NumVertices()-1 {
		t.Fatalf("vertex count %d, held %d", next.NumVertices(), held.NumVertices())
	}
}

// TestSnapshotShardBoundary exercises the vertices straddling the first
// shard boundary (IDs ShardSize-1 and ShardSize) and the COW sharing
// rules around them: an edit confined to one shard republishes exactly
// that shard, a boundary edge dirties both of its endpoint shards.
func TestSnapshotShardBoundary(t *testing.T) {
	const lo, hi = graph.ShardSize - 1, graph.ShardSize
	g := graph.New()
	g.AddEdge(0, 1)
	g.AddEdge(lo, hi)
	st, err := core.Run(g, core.Config{T: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	det := seqDet{st}
	sn0 := newSnapshot(0, det, postprocess.Config{}, core.UpdateStats{})
	if sn0.NumShards() != 2 {
		t.Fatalf("NumShards = %d, want 2", sn0.NumShards())
	}
	if sn0.NumVertices() != 4 || sn0.NumEdges() != 2 {
		t.Fatalf("totals: %d vertices %d edges", sn0.NumVertices(), sn0.NumEdges())
	}
	for _, v := range []uint32{lo, hi} {
		if !sn0.HasVertex(v) || sn0.Degree(v) != 1 {
			t.Fatalf("boundary vertex %d: present=%v deg=%d", v, sn0.HasVertex(v), sn0.Degree(v))
		}
		if l := sn0.Labels(v); len(l) != 21 {
			t.Fatalf("boundary vertex %d: %d labels, want T+1=21", v, len(l))
		}
	}
	var edges [][2]uint32
	for _, u := range sn0.Vertices() {
		for _, v := range sn0.Neighbors(u) {
			if u < v {
				edges = append(edges, [2]uint32{u, v})
			}
		}
	}
	if len(edges) != 2 || edges[0] != [2]uint32{0, 1} || edges[1] != [2]uint32{lo, hi} {
		t.Fatalf("edges = %v", edges)
	}

	// An edit confined to shard 0 republishes shard 0 only; shard 1 is
	// shared pointer-for-pointer with the previous snapshot.
	stats := st.Update(graph.Canonicalize(st.Graph(), []graph.Edit{{Op: graph.Insert, U: 0, V: 2}}))
	sn1 := nextSnapshot(sn0, det, stats.Dirty, stats)
	if sn1.ShardsRepublished() != 1 {
		t.Fatalf("in-shard edit republished %d shards, want 1 (dirty=%v)", sn1.ShardsRepublished(), stats.Dirty)
	}
	if sn1.shards[1] != sn0.shards[1] {
		t.Fatal("clean shard 1 was recloned instead of shared")
	}
	if sn1.shards[0] == sn0.shards[0] {
		t.Fatal("dirty shard 0 was shared instead of recloned")
	}
	if !sn1.HasVertex(2) || sn1.NumVertices() != 5 || sn1.NumEdges() != 3 {
		t.Fatalf("after insert: present(2)=%v %d vertices %d edges", sn1.HasVertex(2), sn1.NumVertices(), sn1.NumEdges())
	}

	// A boundary edge's endpoints live in different shards: deleting it
	// must republish both.
	stats = st.Update(graph.Canonicalize(st.Graph(), []graph.Edit{{Op: graph.Delete, U: lo, V: hi}}))
	sn2 := nextSnapshot(sn1, det, stats.Dirty, stats)
	if sn2.ShardsRepublished() != 2 {
		t.Fatalf("boundary delete republished %d shards, want 2 (dirty=%v)", sn2.ShardsRepublished(), stats.Dirty)
	}
	if sn2.NumEdges() != 2 || sn2.Degree(lo) != 0 || sn2.Degree(hi) != 0 {
		t.Fatalf("after boundary delete: %d edges deg(%d)=%d deg(%d)=%d",
			sn2.NumEdges(), lo, sn2.Degree(lo), hi, sn2.Degree(hi))
	}
}

// ringState builds an n-vertex ring and runs the detector on it for T
// iterations.
func ringState(t testing.TB, n uint32, T int, seed uint64) *core.State {
	t.Helper()
	g := graph.New()
	for i := uint32(0); i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	st, err := core.Run(g, core.Config{T: T, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCOWPublicationLargeGraph is the acceptance pin for the tentpole: a
// 2-edit batch on a 100k-vertex graph republishes a handful of shards
// out of 25, publication is ≥10x cheaper than a full clone (guarded as
// a ratio, never absolute time), and the COW snapshot is content-
// identical to a full clone of the same state.
func TestCOWPublicationLargeGraph(t *testing.T) {
	const n = 100_000
	st := ringState(t, n, 20, 3)
	det := seqDet{st}
	s, err := New(det, Options{FlushInterval: time.Hour, MaxBatch: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.Submit(
		graph.Edit{Op: graph.Insert, U: 100, V: 200},
		graph.Edit{Op: graph.Delete, U: 300, V: 301},
	); err != nil {
		t.Fatal(err)
	}
	drainVerified(t, s)
	stats := s.Stats()
	wantShards := graph.NumShards(st.Graph().MaxVertexID())
	if stats.SnapshotShards != wantShards || wantShards != 25 {
		t.Fatalf("snapshot shards = %d (geometry says %d, want 25)", stats.SnapshotShards, wantShards)
	}
	// Both edits and the whole correction spread live inside shard 0.
	if stats.LastShardsRepublished < 1 || stats.LastShardsRepublished > 2 {
		t.Fatalf("2-edit batch republished %d of %d shards", stats.LastShardsRepublished, stats.SnapshotShards)
	}
	if stats.SnapshotShards < 10*stats.LastShardsRepublished {
		t.Fatalf("publication reduction below 10x: %d of %d shards republished",
			stats.LastShardsRepublished, stats.SnapshotShards)
	}

	if stats.LastPublishMicros > stats.TotalPublishMicros {
		t.Fatalf("publish meters inconsistent: last=%d total=%d", stats.LastPublishMicros, stats.TotalPublishMicros)
	}

	// Timing ratio: publish the same state both ways, interleaved
	// min-of-5 so allocator and GC noise hits both sides alike.
	sn := s.Snapshot()
	last := sn.UpdateStats()
	var cowMin, fullMin int64 = -1, -1
	for i := 0; i < 5; i++ {
		c0 := time.Now()
		nextSnapshot(sn, det, last.Dirty, last)
		if m := time.Since(c0).Microseconds(); cowMin < 0 || m < cowMin {
			cowMin = m
		}
		f0 := time.Now()
		newSnapshot(sn.Epoch()+1, det, postprocess.Config{}, last)
		if m := time.Since(f0).Microseconds(); fullMin < 0 || m < fullMin {
			fullMin = m
		}
	}
	if cowMin < 1 {
		cowMin = 1 // a sub-microsecond COW publish still needs a sane ratio base
	}
	if fullMin < 10*cowMin {
		t.Fatalf("full clone %dµs not ≥10x COW publish %dµs", fullMin, cowMin)
	}

	// Content identity: the COW-published snapshot matches a full clone
	// of the same detector state, vertex for vertex, label for label.
	full := newSnapshot(sn.Epoch(), det, postprocess.Config{}, sn.UpdateStats())
	if sn.NumVertices() != full.NumVertices() || sn.NumEdges() != full.NumEdges() {
		t.Fatalf("totals diverge: COW %d/%d, full %d/%d",
			sn.NumVertices(), sn.NumEdges(), full.NumVertices(), full.NumEdges())
	}
	for v := uint32(0); v < n; v++ {
		a, b := sn.Labels(v), full.Labels(v)
		if len(a) != len(b) {
			t.Fatalf("vertex %d: label lengths %d vs %d", v, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d label %d: COW %d, full %d", v, i, a[i], b[i])
			}
		}
		if sn.Degree(v) != full.Degree(v) {
			t.Fatalf("vertex %d: degree %d vs %d", v, sn.Degree(v), full.Degree(v))
		}
	}
}

// Every row a snapshot serves has cap == len, so a caller's append to one
// row reallocates instead of running into whatever follows it: on a full
// clone, and on a copy-on-write successor after an Update on the frozen
// detector, whose changed rows are the detector's fresh copies. At T = 200
// a row is 804 bytes, which no size class fits exactly, so a copy that
// rounds its capacity up (slices.Clone gives cap 224) fails here.
func TestSnapshotRowsAreFullSliceWindows(t *testing.T) {
	const n = graph.ShardSize + 100
	st := ringState(t, n, core.DefaultT, 3)
	det := seqDet{st}
	sn0 := newSnapshot(0, det, postprocess.Config{}, core.UpdateStats{})
	stats := st.Update(graph.Canonicalize(st.Graph(), []graph.Edit{{Op: graph.Insert, U: 5, V: n - 5}}))
	if stats.Changed == 0 {
		t.Fatal("the insert changed no label: no copied row to check")
	}
	sn1 := nextSnapshot(sn0, det, stats.Dirty, stats)
	if sn1.ShardsRepublished() != 2 {
		t.Fatalf("cross-shard insert republished %d shards, want 2", sn1.ShardsRepublished())
	}
	for _, sn := range []*Snapshot{sn0, sn1} {
		for _, rows := range []struct {
			name string
			row  func(uint32) []uint32
		}{{"Labels", sn.Labels}, {"Neighbors", sn.Neighbors}} {
			for v := uint32(0); v+1 < n; v++ {
				r := rows.row(v)
				if len(r) == 0 || cap(r) != len(r) {
					t.Fatalf("epoch %d %s(%d): len %d cap %d, want a non-empty row with cap == len",
						sn.Epoch(), rows.name, v, len(r), cap(r))
				}
				next := slices.Clone(rows.row(v + 1))
				_ = append(r, 1<<31)
				if !slices.Equal(rows.row(v+1), next) {
					t.Fatalf("epoch %d: appending to %s(%d) changed %s(%d)", sn.Epoch(), rows.name, v, rows.name, v+1)
				}
			}
		}
	}
}

// A snapshot keeps the detector's label rows, not a copy of them: a
// bootstrap snapshot over the repository benchmark's graph (LFR 20 000,
// T = 200) retains its adjacency clone and one row header per vertex,
// ≤ 4 MB; a private copy of the labels would add ≈ 16 MB.
func TestSnapshotRetainsNoLabelCopy(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 20000-vertex, T=200 state")
	}
	if raceEnabled {
		t.Skip("the race detector's shadow memory distorts heap figures")
	}
	gen, err := lfr.Generate(lfr.Default(20_000))
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.Run(gen.Graph, core.Config{T: core.DefaultT, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	sn := newSnapshot(0, seqDet{st}, postprocess.Config{}, core.UpdateStats{})
	retained := float64(int64(liveHeap())-int64(before)) / (1 << 20)
	runtime.KeepAlive(sn)
	runtime.KeepAlive(st)
	t.Logf("bootstrap snapshot retains %.2f MB beside the detector", retained)
	const budget = 4
	if retained > budget {
		t.Fatalf("bootstrap snapshot retains %.2f MB, budget %d MB", retained, budget)
	}
}

// liveHeap returns the live heap after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// Publishing a shard costs a constant number of allocations, not one per
// vertex: a fully dirty copy-on-write publish over 5 shards and ≈ 20 000
// vertices stays within a small budget per shard republished.
func TestSnapshotPublishAllocsPerShard(t *testing.T) {
	const n = 5*graph.ShardSize - 100
	st := ringState(t, n, 20, 3)
	det := seqDet{st}
	prev := newSnapshot(0, det, postprocess.Config{}, core.UpdateStats{})
	dirty := make([]uint32, n)
	for v := range dirty {
		dirty[v] = uint32(v)
	}
	var republished int
	allocs := testing.AllocsPerRun(5, func() {
		republished = nextSnapshot(prev, det, dirty, core.UpdateStats{}).ShardsRepublished()
	})
	if republished != prev.NumShards() || republished != 5 {
		t.Fatalf("fully dirty publish republished %d of %d shards, want 5", republished, prev.NumShards())
	}
	// Per shard: the adjacency's header, presence flags, row spine and
	// neighbor slab, and the snapshot shard's header and label spine (6);
	// the label rows are the detector's own, so none is copied. Per
	// snapshot: its header, cover, shard spine and reclone flags (4). The
	// budget leaves one of slack each.
	const perShard, perSnapshot = 7, 5
	if budget := float64(perShard*republished + perSnapshot); allocs > budget {
		t.Fatalf("fully dirty publish: %.0f allocs for %d shards of %d vertices, budget %.0f",
			allocs, republished, n, budget)
	}
	t.Logf("fully dirty publish: %.0f allocs for %d shards of %d vertices", allocs, republished, n)
}
