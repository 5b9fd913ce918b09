package stream

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"rslpa/internal/core"
	"rslpa/internal/graph"
)

// seqDet adapts core.State to the service's Detector interface. The
// service hands Update canonical batches, so no extra normalization is
// needed here.
type seqDet struct{ st *core.State }

func (d seqDet) Update(b []graph.Edit) (core.UpdateStats, error) { return d.st.Update(b), nil }
func (d seqDet) Labels(v uint32) []uint32                        { return d.st.Labels(v) }
func (d seqDet) Freeze()                                         { d.st.Freeze() }
func (d seqDet) Graph() *graph.Graph                             { return d.st.Graph() }
func (d seqDet) Save(w io.Writer) error                          { return d.st.SaveCheckpoint(w) }

// testGraph builds two triangles joined by a bridge.
func testGraph() *graph.Graph {
	g := graph.New()
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}} {
		g.AddEdge(e[0], e[1])
	}
	return g
}

func newTestService(t *testing.T, opts Options) (*Service, *core.State) {
	t.Helper()
	st, err := core.Run(testGraph(), core.Config{T: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(seqDet{st}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, st
}

func TestServiceDrainAppliesSubmittedEdits(t *testing.T) {
	s, _ := newTestService(t, Options{FlushInterval: time.Hour})
	if got := s.Snapshot().Epoch(); got != 0 {
		t.Fatalf("initial epoch %d", got)
	}
	if err := s.Submit(
		graph.Edit{Op: graph.Insert, U: 0, V: 5},
		graph.Edit{Op: graph.Delete, U: 2, V: 3},
	); err != nil {
		t.Fatal(err)
	}
	drainVerified(t, s)
	sn := s.Snapshot()
	if sn.Epoch() != 1 {
		t.Fatalf("epoch after drain = %d, want 1", sn.Epoch())
	}
	if sn.Degree(0) != 3 || sn.Degree(2) != 2 {
		t.Fatalf("snapshot graph degrees: deg(0)=%d deg(2)=%d", sn.Degree(0), sn.Degree(2))
	}

	// The applied state matches a twin fed the same canonical batch.
	twin, err := core.Run(testGraph(), core.Config{T: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	twin.Update(graph.Canonicalize(twin.Graph(), []graph.Edit{
		{Op: graph.Insert, U: 0, V: 5},
		{Op: graph.Delete, U: 2, V: 3},
	}))
	twin.Graph().ForEachVertex(func(v uint32) {
		a, b := sn.Labels(v), twin.Labels(v)
		for i := range b {
			if a[i] != b[i] {
				t.Fatalf("vertex %d label %d: snapshot %d twin %d", v, i, a[i], b[i])
			}
		}
	})
}

func TestServiceMaxBatchTriggersFlush(t *testing.T) {
	s, _ := newTestService(t, Options{MaxBatch: 2, FlushInterval: time.Hour})
	if err := s.Submit(
		graph.Edit{Op: graph.Insert, U: 0, V: 4},
		graph.Edit{Op: graph.Insert, U: 1, V: 5},
	); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot().Epoch() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("MaxBatch flush never happened")
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.Snapshot().NumEdges(); got != 9 {
		t.Fatalf("edges after flush = %d, want 9", got)
	}
}

func TestServiceFlushIntervalTriggersFlush(t *testing.T) {
	s, _ := newTestService(t, Options{MaxBatch: 1 << 20, FlushInterval: 5 * time.Millisecond})
	if err := s.Submit(graph.Edit{Op: graph.Insert, U: 0, V: 4}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot().Epoch() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval flush never happened")
		}
		time.Sleep(time.Millisecond)
	}
}

// batchLog records the size of every batch its detector applies. With a
// non-nil release, the first Update closes entered and then waits for
// release, holding the maintenance goroutine inside a flush.
type batchLog struct {
	seqDet
	entered, release chan struct{}

	mu    sync.Mutex
	sizes []int
}

func (d *batchLog) Update(b []graph.Edit) (core.UpdateStats, error) {
	d.mu.Lock()
	d.sizes = append(d.sizes, len(b))
	first := len(d.sizes) == 1
	d.mu.Unlock()
	if first && d.release != nil {
		close(d.entered)
		<-d.release
	}
	return d.seqDet.Update(b)
}

func (d *batchLog) batches() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]int(nil), d.sizes...)
}

func newBatchLog(t *testing.T, gated bool) *batchLog {
	t.Helper()
	st, err := core.Run(testGraph(), core.Config{T: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	d := &batchLog{seqDet: seqDet{st}}
	if gated {
		d.entered, d.release = make(chan struct{}), make(chan struct{})
	}
	return d
}

// Group commit (FlushInterval 0, or negative) needs neither a ticker nor a
// Drain: the edits that queue while a flush runs come out as the very next
// batches, back to back, each at most MaxBatch and none empty.
func TestGroupCommitBatchesBackToBack(t *testing.T) {
	for _, interval := range []time.Duration{0, -time.Second} {
		det := newBatchLog(t, true)
		const maxBatch, queued = 16, 3*16 + 5
		s, err := New(det, Options{MaxBatch: maxBatch, FlushInterval: interval})
		if err != nil {
			t.Fatal(err)
		}
		if s.opts.FlushInterval != 0 {
			t.Fatalf("FlushInterval %v normalised to %v, want 0", interval, s.opts.FlushInterval)
		}
		if err := s.Submit(graph.Edit{Op: graph.Insert, U: 0, V: 4}); err != nil {
			t.Fatal(err)
		}
		<-det.entered // the first edit closed a batch on its own; its flush is held
		for i := uint32(0); i < queued; i++ {
			if err := s.Submit(graph.Edit{Op: graph.Insert, U: 1, V: 100 + i}); err != nil {
				t.Fatal(err)
			}
		}
		close(det.release)
		deadline := time.Now().Add(10 * time.Second)
		for {
			st := s.Stats()
			if st.AppliedEdits+st.CoalescedEdits == st.SubmittedEdits && st.SubmittedEdits == 1+queued {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("interval %v: queued edits never applied without a Drain: %+v", interval, st)
			}
			time.Sleep(time.Millisecond)
		}
		// Everything queued behind the held flush is drained in one go:
		// full batches, then the remainder.
		want := []int{1, maxBatch, maxBatch, maxBatch, queued % maxBatch}
		if got := det.batches(); !slices.Equal(got, want) {
			t.Fatalf("interval %v: batch sizes %v, want %v", interval, got, want)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// The twin with a fixed interval: a partial batch waits for its tick (an
// hour away), so nothing is applied until Drain.
func TestFixedIntervalWaitsForDrain(t *testing.T) {
	det := newBatchLog(t, false)
	const maxBatch = 16
	s, err := New(det, Options{MaxBatch: maxBatch, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := uint32(0); i < maxBatch-1; i++ {
		if err := s.Submit(graph.Edit{Op: graph.Insert, U: 1, V: 100 + i}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if got := det.batches(); len(got) != 0 {
		t.Fatalf("batches %v applied before Drain on an hourly interval", got)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := det.batches(); !slices.Equal(got, []int{maxBatch - 1}) {
		t.Fatalf("batch sizes %v after Drain, want [%d]", got, maxBatch-1)
	}
}

func TestServiceCoalescesAndMeters(t *testing.T) {
	s, _ := newTestService(t, Options{FlushInterval: time.Hour})
	err := s.Submit(
		graph.Edit{Op: graph.Insert, U: 0, V: 5}, // survives
		graph.Edit{Op: graph.Insert, U: 5, V: 0}, // duplicate → absorbed
		graph.Edit{Op: graph.Insert, U: 1, V: 4}, // cancelled below
		graph.Edit{Op: graph.Delete, U: 1, V: 4}, // cancels → both absorbed
		graph.Edit{Op: graph.Delete, U: 0, V: 9}, // no-op → absorbed
		graph.Edit{Op: graph.Insert, U: 7, V: 7}, // self-loop → absorbed
	)
	if err != nil {
		t.Fatal(err)
	}
	drainVerified(t, s)
	st := s.Stats()
	if st.SubmittedEdits != 6 || st.AppliedEdits != 1 || st.CoalescedEdits != 5 {
		t.Fatalf("stats: submitted=%d applied=%d coalesced=%d", st.SubmittedEdits, st.AppliedEdits, st.CoalescedEdits)
	}
	if st.Batches != 1 || st.LastBatchEdits != 1 || st.Epoch != 1 {
		t.Fatalf("stats: batches=%d lastBatch=%d epoch=%d", st.Batches, st.LastBatchEdits, st.Epoch)
	}
	if st.Inserted != 1 || st.Deleted != 0 {
		t.Fatalf("stats: inserted=%d deleted=%d", st.Inserted, st.Deleted)
	}
}

func TestSnapshotIsImmutable(t *testing.T) {
	s, _ := newTestService(t, Options{FlushInterval: time.Hour})
	old := s.Snapshot()
	oldLabels := append([]uint32(nil), old.Labels(2)...)
	oldEdges := old.NumEdges()

	if err := s.Submit(graph.Edit{Op: graph.Delete, U: 2, V: 3}); err != nil {
		t.Fatal(err)
	}
	drainVerified(t, s)
	if s.Snapshot().Epoch() != 1 {
		t.Fatal("batch not applied")
	}
	if old.Epoch() != 0 || old.NumEdges() != oldEdges {
		t.Fatal("held snapshot changed shape")
	}
	for i, l := range old.Labels(2) {
		if l != oldLabels[i] {
			t.Fatalf("held snapshot label %d changed", i)
		}
	}
	res, err := old.Communities()
	if err != nil {
		t.Fatal(err)
	}
	again, err := old.Communities()
	if err != nil || res != again {
		t.Fatal("snapshot extraction not memoized")
	}
}

func TestServiceCloseIdempotentAndConcurrent(t *testing.T) {
	s, _ := newTestService(t, Options{})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != errs[0] {
			t.Fatalf("Close %d returned %v, Close 0 returned %v", i, err, errs[0])
		}
	}
	if err := s.Submit(graph.Edit{Op: graph.Insert, U: 0, V: 5}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v", err)
	}
	if err := s.Drain(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Drain after Close: %v", err)
	}
	// Queries still work against the final snapshot.
	if s.Snapshot() == nil {
		t.Fatal("no snapshot after Close")
	}
}

func TestServiceCloseAppliesPendingEdits(t *testing.T) {
	s, _ := newTestService(t, Options{FlushInterval: time.Hour})
	if err := s.Submit(graph.Edit{Op: graph.Insert, U: 0, V: 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	if sn.Epoch() != 1 || sn.Degree(0) != 3 {
		t.Fatalf("pending edit lost at Close: epoch=%d deg(0)=%d", sn.Epoch(), sn.Degree(0))
	}
}

// failDet fails every Update after the first.
type failDet struct {
	seqDet
	calls *int
}

func (d failDet) Update(b []graph.Edit) (core.UpdateStats, error) {
	if *d.calls++; *d.calls > 1 {
		return core.UpdateStats{}, fmt.Errorf("synthetic engine failure")
	}
	return d.st.Update(b), nil
}

func TestServiceLatchesOnDetectorFailure(t *testing.T) {
	st, err := core.Run(testGraph(), core.Config{T: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	s, err := New(failDet{seqDet{st}, &calls}, Options{FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.Submit(graph.Edit{Op: graph.Insert, U: 0, V: 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err) // first update succeeds
	}
	if err := s.Submit(graph.Edit{Op: graph.Insert, U: 1, V: 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err == nil {
		t.Fatal("drain after failing update returned nil")
	}
	// The pre-failure snapshot keeps serving.
	if sn := s.Snapshot(); sn.Epoch() != 1 {
		t.Fatalf("post-failure snapshot epoch %d, want 1", sn.Epoch())
	}
	if st := s.Stats(); st.LastError == "" {
		t.Fatal("failure not reported in Stats")
	}
	// Later drains report the latched error instead of applying.
	if err := s.Submit(graph.Edit{Op: graph.Insert, U: 2, V: 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err == nil {
		t.Fatal("latched service applied a batch")
	}
	// ... even with nothing pending at all.
	if err := s.Drain(); err == nil {
		t.Fatal("empty drain of a latched service reported success")
	}
}

func TestServiceCheckpointsRelativePath(t *testing.T) {
	t.Chdir(t.TempDir())
	st, err := core.Run(testGraph(), core.Config{T: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// A bare filename exercises the dir=="" split: the temp file must land
	// in the working directory, not os.TempDir (cross-device rename).
	s, err := New(seqDet{st}, Options{
		FlushInterval: time.Hour, CheckpointPath: "service.ckpt", CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Submit(graph.Edit{Op: graph.Insert, U: 0, V: 5}); err != nil {
		t.Fatal(err)
	}
	drainVerified(t, s)
	if _, err := os.Stat("service.ckpt"); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	if st := s.Stats(); st.Checkpoints != 1 || st.LastError != "" {
		t.Fatalf("stats: checkpoints=%d lastError=%q", st.Checkpoints, st.LastError)
	}
}

func TestServiceCheckpointFailureIsTransient(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "service.ckpt")
	// Block the target with a directory: Save succeeds but the rename
	// fails, a durability-only error that must not latch the service.
	if err := os.Mkdir(ckpt, 0o755); err != nil {
		t.Fatal(err)
	}
	st, err := core.Run(testGraph(), core.Config{T: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(seqDet{st}, Options{
		FlushInterval: time.Hour, CheckpointPath: ckpt, CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.Submit(graph.Edit{Op: graph.Insert, U: 0, V: 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err == nil {
		t.Fatal("blocked checkpoint not reported")
	}
	if st := s.Stats(); st.LastError == "" || st.Epoch != 1 {
		t.Fatalf("stats after blocked checkpoint: lastError=%q epoch=%d", st.LastError, st.Epoch)
	}

	// Unblock: the next successful checkpoint clears the error.
	if err := os.Remove(ckpt); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(graph.Edit{Op: graph.Insert, U: 1, V: 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatalf("drain after unblocking: %v", err)
	}
	if st := s.Stats(); st.LastError != "" || st.Checkpoints != 1 {
		t.Fatalf("stats after recovery: lastError=%q checkpoints=%d", st.LastError, st.Checkpoints)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("clean Close after recovered checkpoint: %v", err)
	}
}
