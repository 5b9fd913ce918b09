package stream

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"rslpa/internal/core"
	"rslpa/internal/evolution"
	"rslpa/internal/graph"
	"rslpa/internal/obs"
)

// Without EvolutionDepth every evolution route answers 404, mirroring the
// disabled feed.
func TestEvolutionRoutesDisabled(t *testing.T) {
	_, srv := newHTTPService(t)
	for _, path := range []string{
		"/events?from=0",
		"/community/1/history",
		"/evolution/state",
		"/communities?epoch=0",
	} {
		var out map[string]any
		if code := getJSON(t, srv.URL+path, &out); code != http.StatusNotFound {
			t.Errorf("GET %s = %d without EvolutionDepth, want 404", path, code)
		}
	}
}

func TestEventsJournalOverHTTP(t *testing.T) {
	s, srv, _ := newFeedService(t, Options{FlushInterval: time.Hour, EvolutionDepth: 8})
	applyBatches(t, s, 3, 10)

	var resp eventsResponse
	if code := getJSON(t, srv.URL+"/events?from=0", &resp); code != http.StatusOK {
		t.Fatalf("GET /events?from=0: %d", code)
	}
	if resp.WriterEpoch != 3 || resp.OldestEpoch != 0 {
		t.Fatalf("envelope = %+v, want writer_epoch 3, oldest_epoch 0", resp)
	}
	if len(resp.Events) == 0 {
		t.Fatal("no events after three epochs")
	}
	for _, ev := range resp.Events {
		if ev.Epoch < 1 || ev.Epoch > 3 {
			t.Errorf("event outside epoch range: %+v", ev)
		}
		if ev.Lineage == 0 {
			t.Errorf("event without lineage: %+v", ev)
		}
	}

	// Whole-epoch paging: max=1 serves exactly epoch 1's events, and the
	// cursor resumes from there.
	var page eventsResponse
	if code := getJSON(t, srv.URL+"/events?from=0&max=1", &page); code != http.StatusOK {
		t.Fatalf("GET /events?from=0&max=1: %d", code)
	}
	for _, ev := range page.Events {
		if ev.Epoch != 1 {
			t.Errorf("max=1 page leaked epoch %d", ev.Epoch)
		}
	}

	// Caught-up cursor: empty events array (never null), 200.
	var tail eventsResponse
	if code := getJSON(t, srv.URL+"/events?from=3", &tail); code != http.StatusOK {
		t.Fatalf("GET /events?from=3: %d", code)
	}
	if tail.Events == nil || len(tail.Events) != 0 {
		t.Errorf("caught-up events = %#v, want empty non-nil", tail.Events)
	}

	// Malformed cursors are 400.
	for _, q := range []string{"", "?from=x", "?from=1&max=0", "?from=1&max=-2"} {
		var out map[string]any
		if code := getJSON(t, srv.URL+"/events"+q, &out); code != http.StatusBadRequest {
			t.Errorf("GET /events%s = %d, want 400", q, code)
		}
	}
}

func TestEventsBehindHorizonGone(t *testing.T) {
	s, srv, _ := newFeedService(t, Options{FlushInterval: time.Hour, EvolutionDepth: 2})
	applyBatches(t, s, 5, 10)

	var out struct {
		Error       string `json:"error"`
		OldestEpoch uint64 `json:"oldest_epoch"`
		WriterEpoch uint64 `json:"writer_epoch"`
	}
	if code := getJSON(t, srv.URL+"/events?from=0", &out); code != http.StatusGone {
		t.Fatalf("GET /events?from=0 = %d, want 410", code)
	}
	if out.OldestEpoch != 3 || out.WriterEpoch != 5 {
		t.Fatalf("410 envelope = %+v, want oldest 3, writer 5", out)
	}
	// The advertised oldest cursor is servable.
	var ok eventsResponse
	if code := getJSON(t, srv.URL+"/events?from="+strconv.FormatUint(out.OldestEpoch, 10), &ok); code != http.StatusOK {
		t.Fatalf("GET /events?from=oldest = %d, want 200", code)
	}
}

func TestCommunityHistoryRoute(t *testing.T) {
	s, srv, _ := newFeedService(t, Options{FlushInterval: time.Hour, EvolutionDepth: 8})
	applyBatches(t, s, 2, 10)

	var resp eventsResponse
	if code := getJSON(t, srv.URL+"/events?from=0", &resp); code != http.StatusOK {
		t.Fatalf("GET /events: %d", code)
	}
	if len(resp.Events) == 0 {
		t.Fatal("no events")
	}
	id := resp.Events[0].Lineage
	var hist struct {
		Epoch   uint64            `json:"epoch"`
		Lineage uint64            `json:"lineage"`
		Born    uint64            `json:"born"`
		Alive   bool              `json:"alive"`
		Events  []evolution.Event `json:"events"`
	}
	if code := getJSON(t, srv.URL+"/community/"+strconv.FormatUint(id, 10)+"/history", &hist); code != http.StatusOK {
		t.Fatalf("GET /community/{id}/history: %d", code)
	}
	if hist.Lineage != id || hist.Epoch != 2 || len(hist.Events) == 0 {
		t.Fatalf("history = %+v", hist)
	}
	for _, ev := range hist.Events {
		if ev.Lineage != id {
			t.Errorf("history leaked foreign lineage event: %+v", ev)
		}
	}

	var out map[string]any
	if code := getJSON(t, srv.URL+"/community/999999/history", &out); code != http.StatusNotFound {
		t.Errorf("unknown lineage = %d, want 404", code)
	}
	if code := getJSON(t, srv.URL+"/community/xyz/history", &out); code != http.StatusBadRequest {
		t.Errorf("malformed lineage = %d, want 400", code)
	}
}

// /communities?epoch=E serves retained past epochs' covers: inside the
// window 200, behind it 410 (like /feed and /events), ahead of it 404.
func TestCommunitiesEpochWindow(t *testing.T) {
	s, srv, _ := newFeedService(t, Options{FlushInterval: time.Hour, EvolutionDepth: 2})
	applyBatches(t, s, 4, 10)

	var cur struct {
		Epoch uint64 `json:"epoch"`
	}
	for _, epoch := range []uint64{2, 3, 4} {
		if code := getJSON(t, srv.URL+"/communities?epoch="+strconv.FormatUint(epoch, 10), &cur); code != http.StatusOK {
			t.Fatalf("GET /communities?epoch=%d = %d, want 200", epoch, code)
		}
		if cur.Epoch != epoch {
			t.Errorf("epoch %d served snapshot of epoch %d", epoch, cur.Epoch)
		}
	}
	var out map[string]any
	if code := getJSON(t, srv.URL+"/communities?epoch=1", &out); code != http.StatusGone {
		t.Errorf("behind window = %d, want 410", code)
	}
	if code := getJSON(t, srv.URL+"/communities?epoch=9", &out); code != http.StatusNotFound {
		t.Errorf("future epoch = %d, want 404", code)
	}
	if code := getJSON(t, srv.URL+"/communities?epoch=x", &out); code != http.StatusBadRequest {
		t.Errorf("malformed epoch = %d, want 400", code)
	}
	// Without ?epoch the route still serves the live snapshot.
	if code := getJSON(t, srv.URL+"/communities", &cur); code != http.StatusOK || cur.Epoch != 4 {
		t.Errorf("live /communities = %d (epoch %d), want 200 at epoch 4", code, cur.Epoch)
	}
	_ = s
}

// The evolution metric families register only when the tier is enabled
// (the golden family set of uninstrumented services is pinned elsewhere),
// and the event counter accounts every journaled event.
func TestEvolutionMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s, srv, _ := newFeedService(t, Options{FlushInterval: time.Hour, EvolutionDepth: 8, Obs: reg})
	applyBatches(t, s, 3, 10)

	fams := scrapeFamilies(t, srv.URL)
	for _, name := range []string{"rslpa_evolution_events_total", "rslpa_evolution_diff_seconds", "rslpa_evolution_lineages"} {
		if fams[name] == nil {
			t.Fatalf("family %q missing", name)
		}
	}
	var resp eventsResponse
	if code := getJSON(t, srv.URL+"/events?from=0", &resp); code != http.StatusOK {
		t.Fatal("GET /events failed")
	}
	var counted float64
	for _, v := range fams["rslpa_evolution_events_total"].Samples {
		counted += v
	}
	if counted != float64(len(resp.Events)) {
		t.Errorf("events_total sums to %g, journal holds %d", counted, len(resp.Events))
	}
	if v := fams["rslpa_evolution_diff_seconds"].Samples["rslpa_evolution_diff_seconds_count"]; v != 3 {
		t.Errorf("diff_seconds_count = %g, want 3", v)
	}
	if v := fams["rslpa_evolution_lineages"].Samples["rslpa_evolution_lineages"]; v < 1 {
		t.Errorf("lineages gauge = %g, want >= 1", v)
	}
}

// GET /evolution/state, asked before any GET /checkpoint, captures the
// tracker baseline at the head; the image restores into a tracker at that
// epoch.
func TestEvolutionStateEndpoint(t *testing.T) {
	s, srv, _ := newFeedService(t, Options{
		FlushInterval: time.Hour, JournalDepth: 4, EvolutionDepth: 8,
	})
	applyBatches(t, s, 2, 10)

	resp, err := http.Get(srv.URL + "/evolution/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /evolution/state = %d", resp.StatusCode)
	}
	epoch, err := strconv.ParseUint(resp.Header.Get(CheckpointEpochHeader), 10, 64)
	if err != nil {
		t.Fatalf("epoch header: %v", err)
	}
	if epoch != 2 {
		t.Fatalf("state epoch = %d, want 2 (the head)", epoch)
	}
	data := make([]byte, 1<<20)
	n, _ := resp.Body.Read(data)
	tr := evolution.New(evolution.Config{Depth: 8})
	if err := tr.Restore(data[:n]); err != nil {
		t.Fatalf("state does not restore: %v", err)
	}
	if tr.Epoch() != epoch {
		t.Errorf("restored epoch %d, header %d", tr.Epoch(), epoch)
	}
	if tr.LiveLineages() == 0 {
		t.Error("restored state has no lineages")
	}
}

// Lineage IDs survive a writer restart: the durable checkpoint's
// .evolution sidecar restores the matcher baseline, so communities keep
// their pre-restart lineages instead of being reborn.
func TestLineageStableAcrossCheckpointRestart(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "svc.ckpt")
	opts := Options{
		FlushInterval: time.Hour, CheckpointPath: ckpt, CheckpointEvery: 1, EvolutionDepth: 8,
	}
	s1, _, _ := newFeedService(t, opts)
	applyBatches(t, s1, 2, 10)
	before := map[uint64]uint64{} // lineage -> born
	s1.evo.mu.RLock()
	for _, c := range s1.evo.tr.Communities() {
		before[c.Lineage] = c.Born
	}
	s1.evo.mu.RUnlock()
	if len(before) == 0 {
		t.Fatal("no lineages before restart")
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt + evolutionSidecarSuffix); err != nil {
		t.Fatalf("evolution sidecar not written: %v", err)
	}

	// Restart: resume the detector from the durable checkpoint; the
	// sidecar restores the lineage baseline automatically.
	f, err := os.Open(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := core.ReadCheckpoint(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	st, err := ck.BuildState()
	if err != nil {
		t.Fatal(err)
	}
	baseEpoch := st.Epoch()
	opts.BaseEpoch = baseEpoch
	s2, err := New(seqDet{st}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.evo.mu.RLock()
	after := map[uint64]uint64{}
	for _, c := range s2.evo.tr.Communities() {
		after[c.Lineage] = c.Born
	}
	s2.evo.mu.RUnlock()
	if len(after) != len(before) {
		t.Fatalf("lineage count changed across restart: %d -> %d", len(before), len(after))
	}
	for id, born := range before {
		if gotBorn, ok := after[id]; !ok || gotBorn != born {
			t.Errorf("lineage %d (born %d) lost across restart (after: %v)", id, born, after)
		}
	}

	// The next epoch continues the restored lineages — no spurious births.
	if err := s2.Submit(graph.Edit{Op: graph.Insert, U: 0, V: 30}); err != nil {
		t.Fatal(err)
	}
	drainVerified(t, s2)
	s2.evo.mu.RLock()
	evs, status := s2.evo.tr.Events(baseEpoch, 10)
	s2.evo.mu.RUnlock()
	if status != evolution.FeedOK || len(evs) == 0 {
		t.Fatalf("no post-restart events (status %v)", status)
	}
	for _, ev := range evs {
		if _, ok := before[ev.Lineage]; ok {
			continue // restored lineage continued — the point of the sidecar
		}
		switch ev.Kind {
		case evolution.Birth:
			// A genuinely new community is fine.
		case evolution.Split:
			// A breakaway part is a fresh lineage, but its parent must be
			// one the restart preserved.
			if len(ev.Related) != 1 {
				t.Errorf("split part without parent: %+v", ev)
			} else if _, ok := before[ev.Related[0]]; !ok {
				t.Errorf("split part of unknown parent: %+v", ev)
			}
		default:
			t.Errorf("post-restart event on unknown lineage: %+v", ev)
		}
	}
}

// A follower built from GET /checkpoint and GET /evolution/state starts
// at a restored BaseEpoch it never extracts on its own: New extracts
// nothing, replaying fewer than depth batches extracts only the replayed
// epochs, and ?epoch=BaseEpoch, extracted by that read through the
// window, is the writer's head body of that epoch byte for byte. The
// replayed epochs' bodies match the writer's too.
func TestRestoredBootstrapEpochStaysLazy(t *testing.T) {
	const depth = 4
	w, wsrv, _ := newFeedService(t, Options{
		FlushInterval: time.Hour, JournalDepth: 4, EvolutionDepth: depth,
	})
	wh := w.Handler()
	applyBatches(t, w, 2, 10)
	base := w.Snapshot().Epoch()
	heads := map[uint64][]byte{base: requireRenderedBody(t, wh, "/communities", w.snap.Load())}

	fetch := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(wsrv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d: %v", path, resp.StatusCode, err)
		}
		if e := resp.Header.Get(CheckpointEpochHeader); e != strconv.FormatUint(base, 10) {
			t.Fatalf("GET %s at epoch %s, want %d", path, e, base)
		}
		return body
	}
	ck, err := core.ReadCheckpoint(bytes.NewReader(fetch("/checkpoint")))
	if err != nil {
		t.Fatal(err)
	}
	st, err := ck.BuildState()
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(seqDet{st}, Options{
		MaxBatch: 1 << 20, FlushInterval: time.Hour, BaseEpoch: base,
		EvolutionDepth: depth, EvolutionState: fetch("/evolution/state"),
		Obs: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fh := f.Handler()
	x := f.snap.Load().ext
	if n := x.seconds.Count(); n != 0 {
		t.Fatalf("rslpa_stream_extract_seconds_count = %d right after New, want 0", n)
	}

	const replayed = depth - 1
	for i := uint32(0); i < replayed; i++ {
		applyBatches(t, w, 1, 20+i)
		heads[base+uint64(i)+1] = requireRenderedBody(t, wh, "/communities", w.snap.Load())
	}
	var feed FeedResponse
	if code := getJSON(t, wsrv.URL+"/feed?from="+strconv.FormatUint(base, 10), &feed); code != http.StatusOK {
		t.Fatalf("GET /feed = %d", code)
	}
	for _, b := range feed.Batches {
		for _, we := range b.Edits {
			e, err := we.edit()
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Submit(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	if n := x.seconds.Count(); n != replayed {
		t.Fatalf("%d extractions after replaying %d batches, want %d: the bootstrap epoch must stay lazy", n, replayed, replayed)
	}
	// Concurrent first reads of the bootstrap epoch share one extraction.
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			fh.ServeHTTP(rec, httptest.NewRequest("GET", "/communities?epoch="+strconv.FormatUint(base, 10), nil))
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), heads[base]) {
				t.Errorf("concurrent GET ?epoch=%d = %d, body differs from the writer's", base, rec.Code)
			}
		}()
	}
	wg.Wait()
	requireHistory(t, fh, heads, base+replayed, depth)
	if n := x.seconds.Count(); n != replayed+1 {
		t.Fatalf("%d extractions after reading ?epoch=%d, want %d", n, base, replayed+1)
	}
	f.evo.mu.RLock()
	boot := f.evo.covers[0]
	f.evo.mu.RUnlock()
	if boot.epoch != base || boot.src.Load() != nil {
		t.Fatalf("oldest cover: epoch %d (want %d), still holds its snapshot: %v", boot.epoch, base, boot.src.Load() != nil)
	}
}

// A sidecar whose epoch does not match the detector checkpoint (e.g. the
// checkpoint was replaced manually) rebases instead of resuming wrong.
func TestEvolutionSidecarMismatchRebases(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "svc.ckpt")
	stale := []byte(`{"v":1,"epoch":99,"communities":[{"lineage":5,"born":98,"members":[1,2]}]}`)
	if err := os.WriteFile(ckpt+evolutionSidecarSuffix, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	s, _ := newTestService(t, Options{
		FlushInterval: time.Hour, CheckpointPath: ckpt, EvolutionDepth: 4,
	})
	s.evo.mu.RLock()
	defer s.evo.mu.RUnlock()
	if s.evo.tr.Epoch() != 0 {
		t.Errorf("tracker adopted mismatched sidecar (epoch %d)", s.evo.tr.Epoch())
	}
	for _, c := range s.evo.tr.Communities() {
		if c.Lineage == 5 {
			t.Error("stale sidecar lineage survived the rebase")
		}
	}
}
