package stream

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"rslpa/internal/core"
	"rslpa/internal/graph"
	"rslpa/internal/obs"
)

// newFeedService starts a journaling service over the two-triangle graph
// behind an httptest server.
func newFeedService(t *testing.T, opts Options) (*Service, *httptest.Server, *core.State) {
	t.Helper()
	st, err := core.Run(testGraph(), core.Config{T: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(seqDet{st}, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() { srv.Close(); s.Close() })
	return s, srv, st
}

// applyBatches drains n single-edit batches through the service, touching
// a fresh vertex pair each time so every batch survives coalescing.
func applyBatches(t *testing.T, s *Service, n int, base uint32) {
	t.Helper()
	for i := 0; i < n; i++ {
		v := base + uint32(i)
		if err := s.Submit(graph.Edit{Op: graph.Insert, U: 0, V: v}); err != nil {
			t.Fatal(err)
		}
		drainVerified(t, s)
	}
}

func TestFeedServesJournaledBatches(t *testing.T) {
	s, srv, _ := newFeedService(t, Options{FlushInterval: time.Hour, JournalDepth: 64})
	applyBatches(t, s, 3, 10)

	var feed FeedResponse
	if code := getJSON(t, srv.URL+"/feed?from=0", &feed); code != http.StatusOK {
		t.Fatalf("GET /feed?from=0: %d", code)
	}
	if feed.WriterEpoch != 3 || feed.OldestEpoch != 1 || len(feed.Batches) != 3 {
		t.Fatalf("feed: %+v", feed)
	}
	for i, b := range feed.Batches {
		if b.Epoch != uint64(i+1) {
			t.Fatalf("batch %d epoch %d", i, b.Epoch)
		}
		if len(b.Edits) != 1 {
			t.Fatalf("batch %d carries %d edits", i, len(b.Edits))
		}
	}

	// Replaying the feed into a twin reproduces the writer bit-for-bit:
	// the journaled batches are the writer's exact canonical batches.
	twin, err := core.Run(testGraph(), core.Config{T: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range feed.Batches {
		batch := make([]graph.Edit, len(b.Edits))
		for j, we := range b.Edits {
			if batch[j], err = we.edit(); err != nil {
				t.Fatal(err)
			}
		}
		twin.Update(batch)
	}
	if twin.Epoch() != feed.WriterEpoch {
		t.Fatalf("twin epoch %d, writer %d", twin.Epoch(), feed.WriterEpoch)
	}
	sn := s.Snapshot()
	twin.Graph().ForEachVertex(func(v uint32) {
		a, b := sn.Labels(v), twin.Labels(v)
		for i := range b {
			if a[i] != b[i] {
				t.Fatalf("vertex %d label %d: writer %d twin %d", v, i, a[i], b[i])
			}
		}
	})

	// A caught-up follower gets an empty page, not an error.
	if code := getJSON(t, srv.URL+"/feed?from=3", &feed); code != http.StatusOK {
		t.Fatalf("caught-up feed: %d", code)
	}
	if len(feed.Batches) != 0 {
		t.Fatalf("caught-up feed returned %d batches", len(feed.Batches))
	}

	// Pagination: max=1 yields exactly the next epoch.
	if code := getJSON(t, srv.URL+"/feed?from=1&max=1", &feed); code != http.StatusOK {
		t.Fatalf("paginated feed: %d", code)
	}
	if len(feed.Batches) != 1 || feed.Batches[0].Epoch != 2 {
		t.Fatalf("paginated feed: %+v", feed)
	}
}

func TestFeedBehindHorizonRebootstrapsFromCheckpoint(t *testing.T) {
	s, srv, _ := newFeedService(t, Options{FlushInterval: time.Hour, JournalDepth: 2})
	applyBatches(t, s, 7, 10)

	// Epoch 0 fell off the 2-deep journal long ago: 410 Gone, with the
	// envelope telling the follower how far behind it is.
	var feed FeedResponse
	if code := getJSON(t, srv.URL+"/feed?from=0", &feed); code != http.StatusGone {
		t.Fatalf("behind-horizon feed: %d", code)
	}
	if feed.WriterEpoch != 7 || feed.OldestEpoch != 6 {
		t.Fatalf("410 envelope: %+v", feed)
	}

	// Re-bootstrap: the checkpoint is encoded at the head on request, so
	// its epoch is the journal's newest and the follower resumes the feed
	// from it without a second 410, however shallow the journal.
	resp, err := http.Get(srv.URL + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /checkpoint: %d %v", resp.StatusCode, err)
	}
	epoch, err := strconv.ParseUint(resp.Header.Get(CheckpointEpochHeader), 10, 64)
	if err != nil {
		t.Fatalf("checkpoint epoch header: %v", err)
	}
	if epoch != 7 {
		t.Fatalf("checkpoint epoch %d, want 7", epoch)
	}
	requireReplaysToHead(t, s, srv.URL, body, epoch)
}

// requireReplaysToHead loads a GET /checkpoint body, requires it to be at
// epoch, replays GET /feed from there, and holds the result to the
// writer's head labels — what a follower does to bootstrap.
func requireReplaysToHead(t *testing.T, s *Service, url string, body []byte, epoch uint64) {
	t.Helper()
	ck, err := core.ReadCheckpoint(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Verify(); err != nil {
		t.Fatal(err)
	}
	follower, err := ck.BuildState()
	if err != nil {
		t.Fatal(err)
	}
	if follower.Epoch() != epoch {
		t.Fatalf("checkpoint epoch: header %d, state %d", epoch, follower.Epoch())
	}
	var feed FeedResponse
	if code := getJSON(t, url+"/feed?from="+strconv.FormatUint(epoch, 10), &feed); code != http.StatusOK {
		t.Fatalf("feed from checkpoint epoch %d: %d", epoch, code)
	}
	for _, b := range feed.Batches {
		batch, err := b.GraphEdits()
		if err != nil {
			t.Fatal(err)
		}
		follower.Update(batch)
	}
	sn := s.Snapshot()
	if follower.Epoch() != sn.Epoch() {
		t.Fatalf("follower from epoch %d reached %d, writer %d", epoch, follower.Epoch(), sn.Epoch())
	}
	follower.Graph().ForEachVertex(func(v uint32) {
		a, b := sn.Labels(v), follower.Labels(v)
		for i := range b {
			if a[i] != b[i] {
				t.Fatalf("from epoch %d: vertex %d label %d: writer %d follower %d", epoch, v, i, a[i], b[i])
			}
		}
	})
}

// countingDet counts Save calls by the detector epoch they encode.
type countingDet struct {
	seqDet
	mu    sync.Mutex
	saves map[uint64]int
}

func (d *countingDet) Save(w io.Writer) error {
	d.mu.Lock()
	d.saves[d.st.Epoch()]++
	d.mu.Unlock()
	return d.seqDet.Save(w)
}

func newCountingService(t *testing.T, opts Options) (*Service, *countingDet) {
	t.Helper()
	st, err := core.Run(testGraph(), core.Config{T: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	det := &countingDet{seqDet: seqDet{st}, saves: map[uint64]int{}}
	s, err := New(det, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, det
}

// A bootstrap storm costs one encode per epoch: concurrent GET
// /checkpoint requests while batches publish share the head's encode, the
// bodies of one epoch are byte-identical, and every body bootstraps a
// follower that replays the feed to the writer's labels.
func TestCheckpointStormEncodesOncePerEpoch(t *testing.T) {
	s, det := newCountingService(t, Options{FlushInterval: time.Hour, JournalDepth: 64, EvolutionDepth: 4})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const requesters = 8
	var mu sync.Mutex
	served := map[uint64][]byte{}
	stop := make(chan struct{})
	// started is the start barrier: every requester completes one GET
	// before the batches begin, so a fast run cannot finish unobserved.
	var wg, started sync.WaitGroup
	started.Add(requesters)
	for range requesters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ready := sync.OnceFunc(started.Done)
			defer ready() // an early error return must not hang the barrier
			for {
				resp, err := http.Get(srv.URL + "/checkpoint")
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("GET /checkpoint: %d %v", resp.StatusCode, err)
					return
				}
				epoch, err := strconv.ParseUint(resp.Header.Get(CheckpointEpochHeader), 10, 64)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if prev, ok := served[epoch]; ok && !bytes.Equal(prev, body) {
					t.Errorf("epoch %d served two different bodies", epoch)
				}
				served[epoch] = body
				mu.Unlock()
				ready()
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	started.Wait()
	applyBatches(t, s, 20, 10)
	close(stop)
	wg.Wait()

	det.mu.Lock()
	defer det.mu.Unlock()
	t.Logf("%d epochs served, %d encoded", len(served), len(det.saves))
	if len(served) == 0 || len(det.saves) != len(served) {
		t.Errorf("encoded %d epochs, served %d", len(det.saves), len(served))
	}
	for epoch, body := range served {
		if n := det.saves[epoch]; n != 1 {
			t.Errorf("epoch %d encoded %d times", epoch, n)
		}
		requireReplaysToHead(t, s, srv.URL, body, epoch)
	}
}

// A journaling writer nobody asks for a checkpoint never encodes one: the
// standing copy refreshed every CheckpointEvery batches is gone.
func TestUnaskedWriterNeverEncodes(t *testing.T) {
	s, det := newCountingService(t, Options{
		FlushInterval: time.Hour, JournalDepth: 4, EvolutionDepth: 4, Obs: obs.NewRegistry(),
	})
	applyBatches(t, s, 20, 10)
	if got := s.Stats().Batches; got != 20 {
		t.Fatalf("%d batches applied, want 20", got)
	}
	det.mu.Lock()
	defer det.mu.Unlock()
	if len(det.saves) != 0 || s.met.checkpointSeconds.Count() != 0 {
		t.Fatalf("unasked writer encoded %v (checkpoint_seconds_count %d)", det.saves, s.met.checkpointSeconds.Count())
	}
}

// requirePromptStatus serves GET path on h and requires status want
// within a deadline: a bootstrap route must never wait on a maintenance
// goroutine that has exited or stopped applying.
func requirePromptStatus(t *testing.T, h http.Handler, path string, want int) {
	t.Helper()
	got := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		got <- rec.Code
	}()
	select {
	case code := <-got:
		if code != want {
			t.Fatalf("GET %s = %d, want %d", path, code, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("GET %s still pending after 5s", path)
	}
}

// The bootstrap routes answer 503 promptly on a closed service (also
// after an earlier capture) and on one latched by a failed Update, whose
// detector may be half-updated.
func TestBootstrapRoutesFailFast(t *testing.T) {
	opts := Options{FlushInterval: time.Hour, JournalDepth: 4, EvolutionDepth: 4}
	closed, _ := newTestService(t, opts)
	h := closed.Handler()
	requirePromptStatus(t, h, "/checkpoint", http.StatusOK)
	closed.Close()
	requirePromptStatus(t, h, "/checkpoint", http.StatusServiceUnavailable)
	requirePromptStatus(t, h, "/evolution/state", http.StatusServiceUnavailable)

	st, err := core.Run(testGraph(), core.Config{T: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	latched, err := New(failDet{seqDet{st}, &calls}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer latched.Close()
	for i := range 2 {
		if err := latched.Submit(graph.Edit{Op: graph.Insert, U: 0, V: 10 + uint32(i)}); err != nil {
			t.Fatal(err)
		}
		latched.Drain()
	}
	if latched.failureErr() == nil {
		t.Fatal("service did not latch")
	}
	h = latched.Handler()
	requirePromptStatus(t, h, "/checkpoint", http.StatusServiceUnavailable)
	requirePromptStatus(t, h, "/evolution/state", http.StatusServiceUnavailable)
}

// The captured checkpoint lives only while its epoch is the head: one
// more publish makes its bytes collectable, while the evolution baseline
// captured with it stays for GET /evolution/state.
func TestServedCheckpointIsCollected(t *testing.T) {
	s, _ := newTestService(t, Options{FlushInterval: time.Hour, JournalDepth: 4, EvolutionDepth: 4})
	requirePromptStatus(t, s.Handler(), "/checkpoint", http.StatusOK)
	gone := make(chan struct{})
	s.jmu.RLock()
	runtime.SetFinalizer(&s.boot.data[0], func(*byte) { close(gone) })
	s.jmu.RUnlock()

	applyBatches(t, s, 1, 10)
	deadline := time.After(10 * time.Second)
	for collected := false; !collected; {
		runtime.GC()
		select {
		case <-gone:
			collected = true
		case <-deadline:
			t.Fatal("checkpoint bytes still reachable after the next publish")
		case <-time.After(10 * time.Millisecond):
		}
	}
	s.jmu.RLock()
	defer s.jmu.RUnlock()
	if s.boot.evo == nil || s.boot.epoch != 0 {
		t.Fatalf("evolution baseline not kept until the next capture: epoch %d, %d bytes", s.boot.epoch, len(s.boot.evo))
	}
}

func TestFeedDisabledIs404(t *testing.T) {
	_, srv := newHTTPService(t) // no JournalDepth
	var e map[string]any
	if code := getJSON(t, srv.URL+"/feed?from=0", &e); code != http.StatusNotFound {
		t.Fatalf("GET /feed without journaling: %d", code)
	}
	resp, err := http.Get(srv.URL + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /checkpoint without journaling: %d", resp.StatusCode)
	}
}

func TestFeedBadParams(t *testing.T) {
	_, srv, _ := newFeedService(t, Options{FlushInterval: time.Hour, JournalDepth: 8})
	var e map[string]any
	if code := getJSON(t, srv.URL+"/feed", &e); code != http.StatusBadRequest {
		t.Fatalf("feed without from: %d", code)
	}
	if code := getJSON(t, srv.URL+"/feed?from=0&max=-1", &e); code != http.StatusBadRequest {
		t.Fatalf("feed with negative max: %d", code)
	}
}

// TestCheckpointReadBackAlwaysLoadable pins the durability contract: after
// every drain that rolled a checkpoint, the file on disk parses, verifies,
// and rebuilds into a State at the recorded epoch — never truncated or
// half-renamed.
func TestCheckpointReadBackAlwaysLoadable(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "service.ckpt")
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
	for i := 0; i < 5; i++ {
		if err := s.Submit(graph.Edit{Op: graph.Insert, U: 0, V: 10 + uint32(i)}); err != nil {
			t.Fatal(err)
		}
		drainVerified(t, s)
		f, err := os.Open(ckpt)
		if err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
		ck, err := core.ReadCheckpoint(f)
		f.Close()
		if err != nil {
			t.Fatalf("drain %d: checkpoint unreadable: %v", i, err)
		}
		if err := ck.Verify(); err != nil {
			t.Fatalf("drain %d: checkpoint inconsistent: %v", i, err)
		}
		restored, err := ck.BuildState()
		if err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
		if restored.Epoch() != uint64(i+1) {
			t.Fatalf("drain %d: restored epoch %d", i, restored.Epoch())
		}
	}
}

// TestReadyzReflectsCheckpointHealth pins the degraded-durability
// surfacing: /healthz stays 200 (liveness: queries are served) but carries
// checkpoint_error, /readyz goes 503, and Stats counts the failed flush —
// all cleared again by the next successful checkpoint.
func TestReadyzReflectsCheckpointHealth(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "service.ckpt")
	if err := os.Mkdir(ckpt, 0o755); err != nil { // rename target blocked
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
	srv := httptest.NewServer(s.Handler())
	defer func() { srv.Close(); s.Close() }()

	var h map[string]any
	if code := getJSON(t, srv.URL+"/readyz", &h); code != http.StatusOK {
		t.Fatalf("initial readyz: %d", code)
	}

	if err := s.Submit(graph.Edit{Op: graph.Insert, U: 0, V: 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err == nil {
		t.Fatal("blocked checkpoint not reported by drain")
	}
	if code := getJSON(t, srv.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz while degraded: %d (must stay live)", code)
	}
	if _, ok := h["checkpoint_error"]; !ok {
		t.Fatalf("healthz body hides the checkpoint failure: %v", h)
	}
	if code := getJSON(t, srv.URL+"/readyz", &h); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while degraded: %d", code)
	}
	if st := s.Stats(); st.FlushErrors == 0 {
		t.Fatalf("flush_errors not counted: %+v", st)
	}

	// Recovery: unblock the target; the next checkpoint clears everything.
	if err := os.Remove(ckpt); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(graph.Edit{Op: graph.Insert, U: 1, V: 5}); err != nil {
		t.Fatal(err)
	}
	drainVerified(t, s)
	if code := getJSON(t, srv.URL+"/readyz", &h); code != http.StatusOK {
		t.Fatalf("readyz after recovery: %d", code)
	}
	// Fresh map: Unmarshal into a reused one would keep the stale key.
	var h2 map[string]any
	if code := getJSON(t, srv.URL+"/healthz", &h2); code != http.StatusOK {
		t.Fatalf("healthz after recovery: %d", code)
	}
	if _, ok := h2["checkpoint_error"]; ok {
		t.Fatalf("stale checkpoint_error after recovery: %v", h2)
	}
}

// feedEntry is the wire form of a batch claimed to produce epoch.
func feedEntry(epoch uint64, edits ...graph.Edit) FeedEntry {
	e := FeedEntry{Epoch: epoch, Edits: make([]editJSON, len(edits))}
	for i, ed := range edits {
		e.Edits[i] = wireEdit(ed)
	}
	return e
}

// Apply rejects every entry that is not the canonical batch for the next
// epoch with ErrDiverged, and a rejection changes nothing: not the epoch,
// the graph, the counters or the journal, and the next valid entry
// applies, so nothing latched.
func TestApplyRejectsDivergedBatch(t *testing.T) {
	s, _, _ := newFeedService(t, Options{FlushInterval: time.Hour, JournalDepth: 64})
	h := s.Handler()
	ins := func(u, v uint32) graph.Edit { return graph.Edit{Op: graph.Insert, U: u, V: v} }
	del := func(u, v uint32) graph.Edit { return graph.Edit{Op: graph.Delete, U: u, V: v} }
	// testGraph has 0-1 and 2-3; 0-5, 1-5 and 0-4 are absent throughout.
	cases := []struct {
		name  string
		entry func(head uint64) FeedEntry
	}{
		{"epoch gap", func(h uint64) FeedEntry { return feedEntry(h+2, ins(0, 5)) }},
		{"epoch repeat", func(h uint64) FeedEntry { return feedEntry(h, ins(0, 5)) }},
		{"empty batch", func(h uint64) FeedEntry { return feedEntry(h + 1) }},
		{"unsorted keys", func(h uint64) FeedEntry { return feedEntry(h+1, ins(1, 5), ins(0, 5)) }},
		{"U > V", func(h uint64) FeedEntry { return feedEntry(h+1, ins(5, 0)) }},
		{"duplicate edge", func(h uint64) FeedEntry { return feedEntry(h+1, ins(0, 5), ins(0, 5)) }},
		{"insert of a present edge", func(h uint64) FeedEntry { return feedEntry(h+1, ins(0, 1), ins(0, 5)) }},
		{"delete of an absent edge", func(h uint64) FeedEntry { return feedEntry(h+1, del(0, 4), del(2, 3)) }},
	}
	// Stats minus the fields a read moves (Snapshot counts queries).
	stats := func() Stats {
		st := s.Stats()
		st.Queries, st.UptimeSeconds = 0, 0
		return st
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sn := s.Snapshot()
			head, edges, st := sn.Epoch(), sn.NumEdges(), stats()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/feed?from=0", nil))
			err := s.Apply(tc.entry(head))
			if !errors.Is(err, ErrDiverged) {
				t.Fatalf("Apply = %v, want ErrDiverged", err)
			}
			if sn := s.Snapshot(); sn.Epoch() != head || sn.NumEdges() != edges {
				t.Fatalf("rejected entry moved the head: epoch %d→%d, edges %d→%d", head, sn.Epoch(), edges, sn.NumEdges())
			}
			if got := stats(); got != st {
				t.Fatalf("rejected entry moved the stats:\nbefore %+v\nafter  %+v", st, got)
			}
			requireBody(t, h, "/feed?from=0", rec.Body.Bytes())
			if err := s.Apply(feedEntry(head+1, ins(0, 100+uint32(i)))); err != nil {
				t.Fatalf("valid Apply after a rejection: %v", err)
			}
			if got := s.Snapshot().Epoch(); got != head+1 {
				t.Fatalf("valid Apply published epoch %d, want %d", got, head+1)
			}
		})
	}
}
