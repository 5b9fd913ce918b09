package replica

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rslpa/internal/core"
	"rslpa/internal/dynamic"
	"rslpa/internal/graph"
	"rslpa/internal/lfr"
	"rslpa/internal/obs"
	"rslpa/internal/stream"
)

// labelHash folds a label matrix (plus the edge count) into one word; two
// states hash equal iff their detection state is bit-identical over
// [0, maxID).
func labelHash(maxID uint32, edges int, labels func(uint32) []uint32) uint64 {
	h := fnv.New64a()
	word := func(x uint32) {
		h.Write([]byte{byte(x), byte(x >> 8), byte(x >> 16), byte(x >> 24)})
	}
	word(uint32(edges))
	for v := uint32(0); v < maxID; v++ {
		seq := labels(v)
		word(uint32(len(seq)))
		for _, l := range seq {
			word(l)
		}
	}
	return h.Sum64()
}

func snapshotHash(maxID uint32, sn *stream.Snapshot) uint64 {
	return labelHash(maxID, sn.NumEdges(), sn.Labels)
}

// testFixture builds a 150-vertex LFR graph and a detector state over it.
func testFixture(t testing.TB) (*graph.Graph, *core.State) {
	t.Helper()
	p := lfr.Default(150)
	p.Seed = 23
	res, err := lfr.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.Run(res.Graph, core.Config{T: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return res.Graph, st
}

// newWriter starts a journaling writer service over st.
func newWriter(t testing.TB, st *core.State, opts stream.Options) *stream.Service {
	t.Helper()
	svc, err := stream.New(seqDetector{st}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

// applyStream drains each batch through the writer, one epoch per batch.
func applyStream(t testing.TB, w *stream.Service, batches [][]graph.Edit) {
	t.Helper()
	for _, batch := range batches {
		if err := w.Submit(batch...); err != nil {
			t.Fatal(err)
		}
		if err := w.Drain(); err != nil {
			t.Fatal(err)
		}
	}
}

// waitFollowerEpoch blocks until the follower's published epoch reaches
// want.
func waitFollowerEpoch(t testing.TB, f *Follower, want uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st := f.Stats(); st.FollowerEpoch >= want {
			return
		}
		if time.Now().After(deadline) {
			st := f.Stats()
			t.Fatalf("follower stuck at epoch %d (want %d): %+v", st.FollowerEpoch, want, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestFollowerTailsWriter(t *testing.T) {
	g, st := testFixture(t)
	maxID := uint32(g.MaxVertexID())
	w := newWriter(t, st, stream.Options{
		MaxBatch: 1 << 20, FlushInterval: time.Hour, JournalDepth: 1024,
	})
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	evolving := g.Clone()
	batches, err := dynamic.Stream(evolving, 40, 6, 77)
	if err != nil {
		t.Fatal(err)
	}
	applyStream(t, w, batches[:3])

	f, err := New(Options{
		WriterURL: srv.URL, PollInterval: 2 * time.Millisecond,
		RetryMin: time.Millisecond, RetryMax: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	waitFollowerEpoch(t, f, 3)
	if got, want := snapshotHash(maxID, f.Snapshot()), snapshotHash(maxID, w.Snapshot()); got != want {
		t.Fatalf("follower diverged after catch-up: %x vs %x", got, want)
	}

	// Keep streaming: the follower tails the live feed.
	applyStream(t, w, batches[3:])
	waitFollowerEpoch(t, f, 6)
	if got, want := snapshotHash(maxID, f.Snapshot()), snapshotHash(maxID, w.Snapshot()); got != want {
		t.Fatalf("follower diverged while tailing: %x vs %x", got, want)
	}

	st2 := f.Stats()
	if st2.FollowerEpoch != 6 || st2.WriterEpoch != 6 || st2.LagBatches != 0 {
		t.Fatalf("lag counters: %+v", st2)
	}
	if st2.CatchupTotal == 0 {
		t.Fatalf("catchup_total not counted: %+v", st2)
	}
	if st2.Rebootstraps != 0 {
		t.Fatalf("unexpected re-bootstraps: %+v", st2)
	}
}

func TestFollowerHTTPReadTier(t *testing.T) {
	g, st := testFixture(t)
	_ = g
	w := newWriter(t, st, stream.Options{
		MaxBatch: 1 << 20, FlushInterval: time.Hour, JournalDepth: 1024,
	})
	wsrv := httptest.NewServer(w.Handler())
	defer wsrv.Close()

	f, err := New(Options{WriterURL: wsrv.URL, PollInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fsrv := httptest.NewServer(f.Handler())
	defer fsrv.Close()

	var comm struct {
		Epoch       uint64  `json:"epoch"`
		Vertices    int     `json:"vertices"`
		Communities [][]int `json:"communities"`
	}
	if code := getJSON(t, fsrv.URL+"/communities", &comm); code != http.StatusOK {
		t.Fatalf("GET /communities: %d", code)
	}
	if comm.Vertices == 0 || len(comm.Communities) == 0 {
		t.Fatalf("empty communities response: %+v", comm)
	}
	// Nothing was written, so both tiers are at the same epoch: the bodies
	// are the same bytes.
	wb, _ := fetch(t, wsrv.URL+"/communities")
	if fb, _ := fetch(t, fsrv.URL+"/communities"); !bytes.Equal(wb, fb) {
		t.Fatalf("writer and follower /communities differ:\nwriter:   %.200s\nfollower: %.200s", wb, fb)
	}

	var vert map[string]any
	if code := getJSON(t, fsrv.URL+"/vertex/3", &vert); code != http.StatusOK {
		t.Fatalf("GET /vertex/3: %d", code)
	}
	if present, _ := vert["present"].(bool); !present {
		t.Fatalf("vertex 3 missing: %v", vert)
	}

	var stats Stats
	if code := getJSON(t, fsrv.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("GET /stats: %d", code)
	}
	if stats.CatchupTotal != 0 && stats.FollowerEpoch == 0 {
		t.Fatalf("inconsistent stats: %+v", stats)
	}

	var h map[string]any
	if code := getJSON(t, fsrv.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("GET /healthz: %d", code)
	}
	for _, k := range []string{"follower_epoch", "writer_epoch", "lag_batches"} {
		if _, ok := h[k]; !ok {
			t.Fatalf("healthz missing %q: %v", k, h)
		}
	}

	// A replica is read-only: the write endpoint does not exist here.
	resp, err := http.Post(fsrv.URL+"/edits", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusAccepted {
		t.Fatal("follower accepted a write")
	}

	f.Close()
	if code := getJSON(t, fsrv.URL+"/healthz", &h); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after close: %d", code)
	}
}

// getJSON fetches a URL and decodes the JSON body.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	body, code := fetch(t, url)
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return code
}

// fetch GETs a URL and returns the raw body and status.
func fetch(t *testing.T, url string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.StatusCode
}

// TestFollowerRebootstrapsBehindHorizon pins the recovery path: a
// follower cut off from the feed while the writer's bounded journal rolls
// past it gets 410 Gone on reconnect, re-bootstraps from the writer's
// latest checkpoint, and converges to hash-equality.
func TestFollowerRebootstrapsBehindHorizon(t *testing.T) {
	g, st := testFixture(t)
	maxID := uint32(g.MaxVertexID())
	w := newWriter(t, st, stream.Options{
		MaxBatch: 1 << 20, FlushInterval: time.Hour,
		JournalDepth: 2,
	})
	inner := w.Handler()

	// Front door that can black-hole the feed: while blocked, the
	// follower's polls fail and back off, and the writer's journal rolls
	// past the follower's position.
	var blockFeed atomic.Bool
	front := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if blockFeed.Load() && r.URL.Path == "/feed" {
			http.Error(rw, "partitioned", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(rw, r)
	}))
	defer front.Close()

	evolving := g.Clone()
	batches, err := dynamic.Stream(evolving, 40, 8, 99)
	if err != nil {
		t.Fatal(err)
	}
	applyStream(t, w, batches[:1])

	f, err := New(Options{
		WriterURL: front.URL, PollInterval: 2 * time.Millisecond,
		RetryMin: time.Millisecond, RetryMax: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitFollowerEpoch(t, f, 1)

	// Partition the feed and stream 7 more batches: with a 2-deep journal
	// the follower's position (epoch 1) falls behind the horizon.
	blockFeed.Store(true)
	applyStream(t, w, batches[1:])
	blockFeed.Store(false)

	waitFollowerEpoch(t, f, 8)
	if got, want := snapshotHash(maxID, f.Snapshot()), snapshotHash(maxID, w.Snapshot()); got != want {
		t.Fatalf("follower diverged after re-bootstrap: %x vs %x", got, want)
	}
	if st := f.Stats(); st.Rebootstraps == 0 {
		t.Fatalf("horizon overrun did not re-bootstrap: %+v", st)
	}
}

// TestFollowerRebootstrapsOnDivergence serves the writer's real checkpoint
// beside a forged feed whose epoch-1 batch holds an insert of an edge the
// follower already has next to one real insert. Re-coalescing would
// quietly shrink it to a one-edit batch and publish epoch 1; the follower
// must instead reject it, re-bootstrap with reason divergence, and never
// publish epoch 1 from it. The forged feed answers every other poll with an
// empty page, as a writer idle between batches would: those clean polls
// must not reset the backoff, so the re-bootstraps stay bounded by
// RetryMax (about 10 in the first second at RetryMax 100 ms, not one per
// few milliseconds).
func TestFollowerRebootstrapsOnDivergence(t *testing.T) {
	g, st := testFixture(t)
	maxID := uint32(g.MaxVertexID())
	w := newWriter(t, st, stream.Options{
		MaxBatch: 1 << 20, FlushInterval: time.Hour, JournalDepth: 1024,
	})
	want := snapshotHash(maxID, w.Snapshot())

	// A present edge u-v and an absent one u-x after it in key order: the
	// forged batch is sorted, oriented and duplicate-free, so only the
	// canonical check against the graph can reject it.
	u := uint32(0)
	v := g.Neighbors(u)[0]
	x := v + 1
	for g.HasEdge(u, x) {
		x++
	}
	forged := fmt.Sprintf(`{"writer_epoch":1,"oldest_epoch":1,"batches":[{"epoch":1,"edits":[`+
		`{"op":"insert","u":%d,"v":%d},{"op":"insert","u":%d,"v":%d}]}]}`, u, v, u, x)

	const idle = `{"writer_epoch":0,"oldest_epoch":1,"batches":[]}`

	inner := w.Handler()
	var forge atomic.Bool
	var feedPolls atomic.Int64
	forge.Store(true)
	front := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if forge.Load() && r.URL.Path == "/feed" {
			rw.Header().Set("Content-Type", "application/json")
			if feedPolls.Add(1)%2 == 0 {
				io.WriteString(rw, idle)
			} else {
				io.WriteString(rw, forged)
			}
			return
		}
		inner.ServeHTTP(rw, r)
	}))
	defer front.Close()

	reg := obs.NewRegistry()
	start := time.Now()
	f, err := New(Options{
		WriterURL: front.URL, PollInterval: 2 * time.Millisecond,
		RetryMin: time.Millisecond, RetryMax: 100 * time.Millisecond,
		Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		st := f.Stats()
		if st.FollowerEpoch != 0 {
			t.Fatalf("follower published epoch %d from the forged batch: %+v", st.FollowerEpoch, st)
		}
		if st.Rebootstraps > 0 && strings.Contains(st.ReplicationError, stream.ErrDiverged.Error()) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("forged batch never triggered a divergence re-bootstrap: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if got := snapshotHash(maxID, f.Snapshot()); got != want {
		t.Fatalf("follower state moved: %x vs writer %x", got, want)
	}
	time.Sleep(time.Until(start.Add(time.Second)))
	n := f.Stats().Rebootstraps
	t.Logf("%d divergence re-bootstraps in the first second", n)
	if n > 20 {
		t.Fatalf("%d divergence re-bootstraps in the first second at RetryMax 100ms, want <= 20", n)
	}
	fsrv := httptest.NewServer(f.Handler())
	defer fsrv.Close()
	resp, err := http.Get(fsrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if v := fams["rslpa_replica_rebootstraps_total"].Samples[`rslpa_replica_rebootstraps_total{reason="divergence"}`]; v < 1 {
		t.Errorf("rebootstraps_total{reason=divergence} = %g, want >= 1", v)
	}

	// With the real feed back, the follower replays the writer's batch.
	forge.Store(false)
	applyStream(t, w, [][]graph.Edit{{{Op: graph.Insert, U: u, V: x}}})
	waitFollowerEpoch(t, f, 1)
	if got, want := snapshotHash(maxID, f.Snapshot()), snapshotHash(maxID, w.Snapshot()); got != want {
		t.Fatalf("follower diverged after recovery: %x vs %x", got, want)
	}
}
