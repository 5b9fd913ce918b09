package core_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"rslpa/internal/core"
	"rslpa/internal/dynamic"
	"rslpa/internal/graph"
	"rslpa/internal/lfr"
)

// TestUpdateSmallBatchAllocs pins the arena refactor's payoff: a warm
// sequential State processes a small batch in a handful of allocations,
// independent of graph size. The budget covers the unavoidable escapes —
// UpdateStats.Dirty is freshly allocated every call because it outlives the
// batch (stream snapshots keep it) — plus slack for map/slice growth noise.
// Before the reusable arena this path cost ~75 allocs per Update; a value
// anywhere near that again means the scratch state is being rebuilt per
// batch.
func TestUpdateSmallBatchAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 4000-vertex fixture")
	}
	res, err := lfr.Generate(lfr.Params{N: 4000, AvgDeg: 8, MaxDeg: 40, Mu: 0.2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Run(res.Graph, core.Config{T: 100, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := dynamic.Batch(s.Graph(), 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	inv := dynamic.Invert(batch)

	// Warm the arena (first Update sizes the stamp arrays and queues), then
	// measure an apply/undo pair so the graph returns to its start state
	// every round and the arena stays at steady-state capacity.
	s.Update(batch)
	s.Update(inv)
	avg := testing.AllocsPerRun(50, func() {
		s.Update(batch)
		s.Update(inv)
	}) / 2

	const budget = 7
	if avg > budget {
		t.Fatalf("sequential Update: %.1f allocs per small batch, budget %d", avg, budget)
	}
	t.Logf("sequential Update: %.1f allocs per small batch (budget %d)", avg, budget)
}

// TestReadCheckpointAllocs pins the decoder's allocations. Records are read
// in bulk and their slices carved from slabs shared by the whole
// checkpoint, so decoding LFR 2 000 / T 200 costs at most one allocation
// per vertex record; it cost ≈ 633 while every word was read on its own.
// A second case pins that a header's ID space never sizes what loading
// allocates: only the vertex IDs present do.
func TestReadCheckpointAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2000-vertex fixture")
	}
	res, err := lfr.Generate(lfr.Default(2000))
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Run(res.Graph, core.Config{T: core.DefaultT, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	perRecord := testing.AllocsPerRun(3, func() {
		if _, err := core.ReadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
	}) / float64(s.Graph().NumVertices())
	const budget = 1
	if perRecord > budget {
		t.Fatalf("ReadCheckpoint: %.3f allocs per vertex record, budget %d", perRecord, budget)
	}
	t.Logf("ReadCheckpoint: %.3f allocs per vertex record (budget %d)", perRecord, budget)

	// One vertex at ID 5 under a header claiming an ID space of 2³¹.
	g := graph.New()
	g.AddVertex(5)
	sparse, err := core.Run(g, core.Config{T: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := sparse.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	const idSpaceOffset = 7 + 3*8 // magic, then T, seed, epoch
	binary.LittleEndian.PutUint64(blob[idSpaceOffset:], 1<<31)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	loaded, err := core.Load(bytes.NewReader(blob))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Graph().HasVertex(5) || loaded.Graph().NumVertices() != 1 {
		t.Fatal("sparse checkpoint did not restore its one vertex")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("loading one vertex under a 2³¹ ID space allocated %d bytes", got)
	}
}
