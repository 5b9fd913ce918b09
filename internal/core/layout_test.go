package core

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"testing"

	"rslpa/internal/dynamic"
	"rslpa/internal/graph"
	"rslpa/internal/lfr"
)

// TestTBound checks that the entry points accept T = MaxT and reject
// T = MaxT+1 with a *TRangeError, and that a checkpoint header claiming
// more iterations than a State can hold is rejected on read.
func TestTBound(t *testing.T) {
	g := ring(3)
	for _, run := range []struct {
		name string
		fn   func(T int) (*State, error)
	}{
		{"Run", func(T int) (*State, error) { return Run(g, Config{T: T, Seed: 1}) }},
		{"RunParallel", func(T int) (*State, error) { return RunParallel(g, Config{T: T, Seed: 1}, 2) }},
	} {
		s, err := run.fn(MaxT)
		if err != nil {
			t.Fatalf("%s at T=%d: %v", run.name, MaxT, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s at T=%d: %v", run.name, MaxT, err)
		}
		var rangeErr *TRangeError
		if _, err := run.fn(MaxT + 1); !errors.As(err, &rangeErr) || rangeErr.T != MaxT+1 {
			t.Fatalf("%s at T=%d: got %v, want a *TRangeError", run.name, MaxT+1, err)
		}
	}

	for _, T := range []int{MaxT, MaxT + 1} {
		var buf bytes.Buffer
		if err := WriteCheckpoint(&buf, CheckpointMeta{T: T, IDSpace: 3}, nil); err != nil {
			t.Fatal(err)
		}
		c, err := ReadCheckpoint(&buf)
		if accepted := err == nil; accepted != (T == MaxT) {
			t.Fatalf("checkpoint header T=%d: accepted=%v (err %v)", T, accepted, err)
		}
		if err == nil && c.T != T {
			t.Fatalf("checkpoint header T=%d read back as %d", T, c.T)
		}
	}
}

// TestAppendRecordGrowth pins the bounded headroom: a full row grows by
// max(4, len/8), and a row with room is appended in place.
func TestAppendRecordGrowth(t *testing.T) {
	for _, n := range []int{0, 3, 40, 200} {
		row := make([]Record, n)
		row = AppendRecord(row, Record{Tar: 1})
		if want := n + max(4, n/8); cap(row) != want || len(row) != n+1 {
			t.Fatalf("full row of %d: len %d cap %d, want len %d cap %d", n, len(row), cap(row), n+1, want)
		}
		before := &row[0]
		row = AppendRecord(row, Record{Tar: 2})
		if &row[0] != before {
			t.Fatalf("row of %d with headroom was reallocated", n+1)
		}
	}
	row := []Record{{Tar: 1}, {Tar: 2, Pos: 1, Iter: 3}, {Tar: 3}}
	row = DropRecord(row, Record{Tar: 2, Pos: 1, Iter: 3})
	row = DropRecord(row, Record{Tar: 9})
	if len(row) != 2 || row[0] != (Record{Tar: 1}) || row[1] != (Record{Tar: 3}) {
		t.Fatalf("DropRecord: %+v", row)
	}
}

// recordSlack returns Σcap and Σlen over a State's record rows.
func recordSlack(s *State) (capSum, lenSum int) {
	for _, row := range s.recv {
		capSum += cap(row)
		lenSum += len(row)
	}
	return capSum, lenSum
}

// TestRecordRowsTight checks that every construction path sizes the record
// rows exactly and that churn keeps the headroom bounded: after 20
// trickle-sized batches the rows hold at most 15 % more capacity than
// records.
func TestRecordRowsTight(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 4000-vertex fixture")
	}
	res, err := lfr.Generate(lfr.Default(4000))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{T: DefaultT, Seed: 5}
	s := mustRun(t, res.Graph, cfg)
	par, err := RunParallel(res.Graph, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*State{"Run": s, "RunParallel": par, "BuildState": loaded} {
		for v, row := range st.recv {
			if cap(row) != len(row) {
				t.Fatalf("%s: vertex %d record row len %d cap %d", name, v, len(row), cap(row))
			}
		}
	}
	for v := range s.recv {
		if !slices.Equal(s.recv[v], par.recv[v]) {
			t.Fatalf("RunParallel record row %d differs from Run's", v)
		}
	}

	for i := 0; i < 20; i++ {
		batch, err := dynamic.Batch(s.Graph(), 200, uint64(1000+i))
		if err != nil {
			t.Fatal(err)
		}
		s.Update(graph.Canonicalize(s.Graph(), batch))
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	capSum, lenSum := recordSlack(s)
	ratio := float64(capSum) / float64(lenSum)
	t.Logf("after 20 batches of 200 edits: Σcap/Σlen = %.3f", ratio)
	if ratio > 1.15 {
		t.Fatalf("record rows hold %.3f× their length after churn, want ≤ 1.15", ratio)
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

// restore decodes a checkpoint and builds its State; the decoded
// Checkpoint is garbage once it returns.
func restore(t *testing.T, blob []byte) *State {
	t.Helper()
	c, err := ReadCheckpoint(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.BuildState()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStateBytesPerSlot pins the detector state's live heap per
// (vertex, iteration) on LFR 20 000 / T 200, for a writer (Run) and for a
// follower (ReadCheckpoint + BuildState): the u32 label, i32 src, u16 pos
// and the 8-byte record at the source, plus the graph and row headers. The
// two must agree: a follower serves the same state a writer built.
func TestStateBytesPerSlot(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 20000-vertex, T=200 state twice")
	}
	if raceEnabled {
		t.Skip("the race detector's shadow memory distorts heap figures")
	}
	const n, T = 20000, DefaultT
	res, err := lfr.Generate(lfr.Default(n))
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	slots := float64(g.NumVertices() * T)

	before := liveHeap()
	s := mustRun(t, g, Config{T: T, Seed: 1})
	writer := float64(liveHeap()-before) / slots
	runtime.KeepAlive(g)

	var buf bytes.Buffer
	if err := s.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	s = nil
	blob := buf.Bytes()
	before = liveHeap()
	f := restore(t, blob)
	follower := float64(liveHeap()-before) / slots
	runtime.KeepAlive(f)
	runtime.KeepAlive(blob)

	t.Logf("bytes per (vertex, iteration): writer %.1f, follower %.1f", writer, follower)
	const budget = 25
	if writer > budget || follower > budget {
		t.Fatalf("detector state: writer %.1f, follower %.1f bytes per (vertex, iteration), budget %d", writer, follower, budget)
	}
	if diff := (follower - writer) / writer; diff > 0.03 || diff < -0.03 {
		t.Fatalf("follower state %.1f vs writer %.1f bytes per slot: %.1f%% apart, want within 3%%", follower, writer, 100*diff)
	}
}
