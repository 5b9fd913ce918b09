package stream

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"rslpa/internal/core"
	"rslpa/internal/graph"
	"rslpa/internal/obs"
)

// engDet wraps seqDet with a fake BSP engine stats feed, exercising the
// EngineStatsProvider plumbing without a cluster.
type engDet struct {
	seqDet
	rounds, messages, bytes int64
}

func (d *engDet) Update(b []graph.Edit) (core.UpdateStats, error) {
	d.rounds += 2
	d.messages += int64(len(b)) * 10
	d.bytes += int64(len(b)) * 80
	return d.seqDet.Update(b)
}

func (d *engDet) EngineStats() (rounds, messages, bytes int64, ok bool) {
	return d.rounds, d.messages, d.bytes, true
}

// scrapeFamilies fetches and lints the service's /metrics exposition.
func scrapeFamilies(t *testing.T, url string) map[string]*obs.Family {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not lint: %v", err)
	}
	return fams
}

// The writer's /metrics exposition lints clean, serves exactly the golden
// family set, and its counters are monotone across scrapes.
func TestMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	s, _ := newTestService(t, Options{FlushInterval: time.Hour, Obs: reg})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	if err := s.Submit(graph.Edit{Op: graph.Insert, U: 0, V: 4}); err != nil {
		t.Fatal(err)
	}
	drainVerified(t, s)
	runtime.GC() // the live-heap gauge reads the last GC's mark
	first := scrapeFamilies(t, srv.URL)

	// Golden family set: catches silent drops or renames of exported
	// series, which dashboards depend on.
	names := make([]string, 0, len(first))
	for name := range first {
		names = append(names, name)
	}
	sort.Strings(names)
	got := strings.Join(names, "\n") + "\n"
	goldenPath := filepath.Join("testdata", "metrics_families.golden")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("metric families diverge from %s:\ngot:\n%swant:\n%s", goldenPath, got, want)
	}

	if v := first["rslpa_stream_batches_total"].Samples["rslpa_stream_batches_total"]; v != 1 {
		t.Errorf("batches_total = %g, want 1", v)
	}
	if v := first["rslpa_stream_update_seconds"].Samples["rslpa_stream_update_seconds_count"]; v != 1 {
		t.Errorf("update_seconds_count = %g, want 1", v)
	}
	if v := first["rslpa_stream_epoch"].Samples["rslpa_stream_epoch"]; v != 1 {
		t.Errorf("epoch gauge = %g, want 1", v)
	}
	if v := first["rslpa_go_heap_live_bytes"].Samples["rslpa_go_heap_live_bytes"]; v <= 0 {
		t.Errorf("heap live gauge = %g after a GC, want > 0", v)
	}

	// Monotonicity across scrapes with traffic in between.
	if err := s.Submit(graph.Edit{Op: graph.Delete, U: 0, V: 4}); err != nil {
		t.Fatal(err)
	}
	drainVerified(t, s)
	second := scrapeFamilies(t, srv.URL)
	for name, f1 := range first {
		if f1.Type == "gauge" {
			continue
		}
		f2 := second[name]
		if f2 == nil {
			t.Errorf("family %q vanished on rescrape", name)
			continue
		}
		for key, v1 := range f1.Samples {
			if v2, ok := f2.Samples[key]; ok && v2 < v1 {
				t.Errorf("counter %s regressed: %g -> %g", key, v1, v2)
			}
		}
	}
}

// Read queries land in the query-latency histogram.
func TestQueryLatencyObserved(t *testing.T) {
	reg := obs.NewRegistry()
	s, _ := newTestService(t, Options{FlushInterval: time.Hour, Obs: reg})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for _, path := range []string{"/communities", "/vertex/0"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	fams := scrapeFamilies(t, srv.URL)
	if v := fams["rslpa_stream_query_seconds"].Samples["rslpa_stream_query_seconds_count"]; v != 2 {
		t.Errorf("query_seconds_count = %g, want 2", v)
	}
}

// A distributed-mode detector's wire traffic surfaces as the engine
// families and in Stats.
func TestEngineStatsSurfaced(t *testing.T) {
	st, err := core.Run(testGraph(), core.Config{T: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	det := &engDet{seqDet: seqDet{st}}
	reg := obs.NewRegistry()
	s, err := New(det, Options{FlushInterval: time.Hour, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Submit(graph.Edit{Op: graph.Insert, U: 0, V: 4}); err != nil {
		t.Fatal(err)
	}
	drainVerified(t, s)
	stats := s.Stats()
	if stats.EngineRounds != det.rounds || stats.EngineMessages != det.messages || stats.EngineBytes != det.bytes {
		t.Errorf("engine stats = (%d, %d, %d), want (%d, %d, %d)",
			stats.EngineRounds, stats.EngineMessages, stats.EngineBytes,
			det.rounds, det.messages, det.bytes)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"rslpa_engine_rounds_total", "rslpa_engine_messages_total", "rslpa_engine_wire_bytes_total"} {
		if fams[name] == nil {
			t.Errorf("engine family %q missing", name)
		}
	}
	if v := fams["rslpa_engine_rounds_total"].Samples["rslpa_engine_rounds_total"]; v != float64(det.rounds) {
		t.Errorf("engine_rounds_total = %g, want %d", v, det.rounds)
	}
}

// Each flushed batch records a span tree whose timed spans sum to the
// batch's total latency within the untimed-residue tolerance, and
// /debug/batches serves it.
func TestBatchTraceSpansSumToTotal(t *testing.T) {
	ring := obs.NewTraceRing(16, 4)
	dir := t.TempDir()
	s, _ := newTestService(t, Options{
		FlushInterval:   time.Hour,
		Trace:           ring,
		CheckpointPath:  filepath.Join(dir, "svc.ckpt"),
		CheckpointEvery: 1, // every batch: exercise the checkpoint span
		JournalDepth:    4, // and the journal span
	})
	for i := 0; i < 3; i++ {
		op := graph.Insert
		if i%2 == 1 {
			op = graph.Delete
		}
		if err := s.Submit(graph.Edit{Op: op, U: 0, V: 4}); err != nil {
			t.Fatal(err)
		}
		drainVerified(t, s)
	}
	if got := ring.Recorded(); got != 3 {
		t.Fatalf("Recorded = %d, want 3", got)
	}
	for _, bt := range ring.Recent() {
		var sum int64
		seen := map[string]bool{}
		for _, sp := range bt.Spans {
			sum += sp.Micros
			seen[sp.Name] = true
		}
		for _, want := range []string{"coalesce", "update", "publish", "journal", "checkpoint"} {
			if !seen[want] {
				t.Errorf("epoch %d: span %q missing (have %v)", bt.Epoch, want, bt.Spans)
			}
		}
		// drainVerified reads every epoch it publishes: epochs 1 and 2 are
		// read lazily, and from epoch 3 on two epochs in a row were read and
		// the loop idled through that read's extraction, so the batch is
		// extracted inside its flush.
		if seen["extract"] != (bt.Epoch > 2) {
			t.Errorf("epoch %d: extract span present = %v (have %v)", bt.Epoch, seen["extract"], bt.Spans)
		}
		if sum > bt.TotalMicros {
			t.Errorf("epoch %d: spans sum %dµs exceeds total %dµs", bt.Epoch, sum, bt.TotalMicros)
		}
		if residue := bt.TotalMicros - sum; residue > bt.TotalMicros/5+2000 {
			t.Errorf("epoch %d: untimed residue %dµs of %dµs total exceeds tolerance", bt.Epoch, residue, bt.TotalMicros)
		}
		if upd := bt.Spans[1]; upd.Name == "update" && upd.Attrs["rounds_run"] < 0 {
			t.Errorf("epoch %d: negative rounds_run attr", bt.Epoch)
		}
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/batches")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Recorded uint64           `json:"recorded"`
		Recent   []obs.BatchTrace `json:"recent"`
		Slowest  []obs.BatchTrace `json:"slowest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Recorded != 3 || len(body.Recent) != 3 || len(body.Slowest) != 3 {
		t.Fatalf("debug/batches = %d recorded, %d recent, %d slowest; want 3 each",
			body.Recorded, len(body.Recent), len(body.Slowest))
	}
}

// Extraction is observed wherever it runs. With the evolution tier on it
// runs on the maintenance goroutine before each swap: one histogram
// observation per epoch (the baseline included), the edge counters carry
// the reuse ratio, and each batch's trace has a top-level extract span
// with the same counts beside an evolution span that is matching only.
// With the tier off and nobody reading, nothing runs at publish and the
// first reader pays, once per snapshot.
func TestExtractionInstrumented(t *testing.T) {
	reg := obs.NewRegistry()
	ring := obs.NewTraceRing(16, 4)
	s, srv, _ := newFeedService(t, Options{FlushInterval: time.Hour, EvolutionDepth: 4, Obs: reg, Trace: ring})
	edges := uint64(s.snap.Load().NumEdges()) // the baseline extraction weighed every edge
	reweighted := edges
	for i := 0; i < 3; i++ {
		if err := s.Submit(graph.Edit{Op: graph.Insert, U: 0, V: 10 + uint32(i)}); err != nil {
			t.Fatal(err)
		}
		drainVerified(t, s)
		sn := s.snap.Load()
		edges += uint64(sn.work.edges)
		reweighted += uint64(sn.work.reweighted)
		if sn.work.edges != sn.NumEdges() || sn.work.reweighted >= sn.work.edges {
			t.Fatalf("epoch %d: extraction emitted %d of %d edges and re-weighed %d",
				sn.Epoch(), sn.work.edges, sn.NumEdges(), sn.work.reweighted)
		}
	}
	fams := scrapeFamilies(t, srv.URL)
	if v := fams["rslpa_stream_extract_seconds"].Samples["rslpa_stream_extract_seconds_count"]; v != 4 {
		t.Errorf("extract_seconds_count = %g, want 4 (baseline + 3 epochs)", v)
	}
	for name, want := range map[string]uint64{
		"rslpa_stream_extract_edges_total":            edges,
		"rslpa_stream_extract_edges_reweighted_total": reweighted,
	} {
		if v := fams[name].Samples[name]; v != float64(want) {
			t.Errorf("%s = %g, want %d", name, v, want)
		}
	}
	for _, bt := range ring.Recent() {
		spans := map[string]obs.Span{}
		var names []string
		for _, sp := range bt.Spans {
			spans[sp.Name] = sp
			names = append(names, sp.Name)
			if len(sp.Children) > 0 {
				t.Errorf("epoch %d: span %q has children %v, want a flat tree", bt.Epoch, sp.Name, sp.Children)
			}
		}
		extract, ok := spans["extract"]
		if _, evo := spans["evolution"]; !ok || !evo {
			t.Fatalf("epoch %d: want top-level extract and evolution spans, have %v", bt.Epoch, names)
		}
		if want := []string{"coalesce", "update", "publish", "extract"}; !reflect.DeepEqual(names[:len(want)], want) {
			t.Errorf("epoch %d: spans %v, want extract right after publish", bt.Epoch, names)
		}
		if e, r := extract.Attrs["edges"], extract.Attrs["edges_reweighted"]; e == 0 || r == 0 || r >= e {
			t.Errorf("epoch %d: extract span attrs edges=%d edges_reweighted=%d", bt.Epoch, e, r)
		}
	}

	// Tier off: nothing runs at publish; the first reader is observed once.
	reg2 := obs.NewRegistry()
	s2, srv2, _ := newFeedService(t, Options{FlushInterval: time.Hour, Obs: reg2})
	count := func() float64 {
		return scrapeFamilies(t, srv2.URL)["rslpa_stream_extract_seconds"].Samples["rslpa_stream_extract_seconds_count"]
	}
	if v := count(); v != 0 {
		t.Fatalf("extract_seconds_count = %g before any read", v)
	}
	for i := 0; i < 2; i++ {
		if _, err := s2.Snapshot().Communities(); err != nil {
			t.Fatal(err)
		}
	}
	if v := count(); v != 1 {
		t.Fatalf("extract_seconds_count = %g after two reads of one snapshot, want 1", v)
	}
}

// /version serves build identity; /stats carries start_time and uptime.
func TestVersionAndUptime(t *testing.T) {
	s, _ := newTestService(t, Options{FlushInterval: time.Hour})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/version")
	if err != nil {
		t.Fatal(err)
	}
	var ver struct {
		GoVersion string `json:"go_version"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ver)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ver.GoVersion == "" {
		t.Error("/version missing go_version")
	}

	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.StartTime.IsZero() {
		t.Error("/stats start_time is zero")
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("/stats uptime_seconds = %g, want > 0", st.UptimeSeconds)
	}
}

// Uninstrumented services skip the metrics and trace routes entirely.
func TestObsRoutesAbsentWhenDisabled(t *testing.T) {
	s, _ := newTestService(t, Options{FlushInterval: time.Hour})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for _, path := range []string{"/metrics", "/debug/batches"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Errorf("GET %s = %d without Obs/Trace, want 404", path, resp.StatusCode)
		}
	}
}

// Structured log events reach the configured handler.
func TestServiceLogsLifecycle(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	s, _ := newTestService(t, Options{FlushInterval: time.Hour, Logger: logger})
	if err := s.Submit(graph.Edit{Op: graph.Insert, U: 0, V: 4}); err != nil {
		t.Fatal(err)
	}
	drainVerified(t, s)
	s.Close()
	logs := buf.String()
	for _, want := range []string{"stream: service started", "stream: service closed"} {
		if !strings.Contains(logs, want) {
			t.Errorf("log missing %q in:\n%s", want, logs)
		}
	}
}
