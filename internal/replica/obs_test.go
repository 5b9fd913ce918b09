package replica

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rslpa/internal/dynamic"
	"rslpa/internal/obs"
	"rslpa/internal/stream"
)

// syncBuf is a mutex-guarded log sink: the follower's tail loop keeps
// logging (error/recovery transitions) after the test's wait conditions
// are met, so reading an unsynchronized bytes.Buffer would race.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// A follower's /metrics exposition lints clean across a re-bootstrap: its
// own rslpa_replica_* families, the inner read service's rslpa_stream_*
// families (re-registered get-or-create by each replay generation), and
// the horizon re-bootstrap counted under its stable reason label.
func TestFollowerMetricsAcrossRebootstrap(t *testing.T) {
	g, st := testFixture(t)
	w := newWriter(t, st, stream.Options{
		MaxBatch: 1 << 20, FlushInterval: time.Hour,
		JournalDepth: 2,
	})
	inner := w.Handler()
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

	var logBuf syncBuf
	reg := obs.NewRegistry()
	f, err := New(Options{
		WriterURL: front.URL, PollInterval: 2 * time.Millisecond,
		RetryMin: time.Millisecond, RetryMax: 10 * time.Millisecond,
		Obs:    reg,
		Trace:  obs.NewTraceRing(8, 2),
		Logger: slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitFollowerEpoch(t, f, 1)

	// Partition the feed past the 2-deep journal horizon to force a
	// re-bootstrap, then let the follower catch up.
	blockFeed.Store(true)
	applyStream(t, w, batches[1:])
	blockFeed.Store(false)
	waitFollowerEpoch(t, f, 8)

	fsrv := httptest.NewServer(f.Handler())
	defer fsrv.Close()
	resp, err := http.Get(fsrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not lint after re-bootstrap: %v", err)
	}
	for _, name := range []string{
		"rslpa_replica_poll_seconds", "rslpa_replica_catchup_batches",
		"rslpa_replica_rebootstraps_total", "rslpa_replica_lag_batches",
		"rslpa_replica_writer_epoch", "rslpa_replica_follower_epoch",
		"rslpa_replica_catchup_total",
		"rslpa_stream_epoch", "rslpa_stream_update_seconds",
		"rslpa_stream_extract_seconds", "rslpa_stream_extract_edges_total",
		"rslpa_stream_extract_edges_reweighted_total",
		"rslpa_go_heap_live_bytes",
	} {
		if fams[name] == nil {
			t.Errorf("family %q missing from follower exposition", name)
		}
	}
	if v := fams["rslpa_replica_rebootstraps_total"].Samples[`rslpa_replica_rebootstraps_total{reason="horizon"}`]; v < 1 {
		t.Errorf("rebootstraps_total{reason=horizon} = %g, want >= 1", v)
	}
	if c := fams["rslpa_replica_poll_seconds"].Samples["rslpa_replica_poll_seconds_count"]; c == 0 {
		t.Error("poll_seconds never observed")
	}
	if v := fams["rslpa_replica_follower_epoch"].Samples["rslpa_replica_follower_epoch"]; v < 8 {
		t.Errorf("follower_epoch gauge = %g, want >= 8", v)
	}

	logs := logBuf.String()
	for _, want := range []string{"replica: follower started", "replica: re-bootstrapping", "reason", "horizon"} {
		if !strings.Contains(logs, want) {
			t.Errorf("log missing %q in:\n%s", want, logs)
		}
	}
}
