package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	depth := 3.5
	r.GaugeFunc("test_depth", "depth", func() float64 { return depth })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "test_depth 3.5\n") {
		t.Fatalf("gauge not read through its closure:\n%s", sb.String())
	}
}

// Registration is get-or-create: the same name returns the same metric, so
// a follower re-registering across replay generations keeps its counters
// cumulative.
func TestGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_total", "t")
	a.Add(7)
	b := r.Counter("test_total", "t")
	if a != b {
		t.Fatalf("re-registering returned a different counter")
	}
	if b.Value() != 7 {
		t.Fatalf("re-registered counter = %d, want 7", b.Value())
	}
	h1 := r.Histogram("test_seconds", "s", LatencyBuckets)
	h1.Observe(0.01)
	h2 := r.Histogram("test_seconds", "s", LatencyBuckets)
	if h1 != h2 || h2.Count() != 1 {
		t.Fatalf("histogram not cumulative across re-registration")
	}
}

// Func metrics replace their closure on re-registration — the live replay
// generation wins.
func TestFuncReplacement(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("test_epoch", "e", func() float64 { return 1 })
	r.GaugeFunc("test_epoch", "e", func() float64 { return 2 })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "test_epoch 2") {
		t.Fatalf("closure not replaced:\n%s", sb.String())
	}
}

// A nil registry and the nil metrics it hands out are valid no-op sinks.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x_total", "x").Inc()
	r.Histogram("x_seconds", "x", nil).Observe(1)
	r.CounterVec("x_by_reason_total", "x", "reason").With("a").Inc()
	r.CounterFunc("x_f_total", "x", func() float64 { return 1 })
	r.GaugeFunc("x_g", "x", func() float64 { return 1 })
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	var ring *TraceRing
	ring.Record(BatchTrace{})
	if ring.Recent() != nil || ring.Slowest() != nil || ring.Recorded() != 0 {
		t.Fatal("nil ring not empty")
	}
}

func TestKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "t")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge over a counter did not panic")
		}
	}()
	r.GaugeFunc("test_total", "t", func() float64 { return 0 })
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name did not panic")
		}
	}()
	r.Counter("0bad-name", "t")
}

// Observations land in the first bucket whose bound they do not exceed,
// and Count is the sum over every bucket, +Inf included.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_lat_seconds", "t", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 1.5, 10, 11, 1e9} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		`test_lat_seconds_bucket{le="1"}`:    2,
		`test_lat_seconds_bucket{le="10"}`:   4,
		`test_lat_seconds_bucket{le="+Inf"}`: 6,
		`test_lat_seconds_count`:             6,
	} {
		if got := fams["test_lat_seconds"].Samples[key]; got != want {
			t.Errorf("%s = %g, want %g", key, got, want)
		}
	}
}

// The exposition of a registry exercising every metric kind parses and
// lints clean: HELP/TYPE present, names valid, histogram buckets
// cumulative with +Inf == _count.
func TestExpositionLints(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_ops_total", "operations").Add(3)
	r.GaugeFunc("app_depth", "queue depth", func() float64 { return 2 })
	h := r.Histogram("app_latency_seconds", "latency", LatencyBuckets)
	h.Observe(0.0001)
	h.Observe(0.004)
	h.Observe(10) // beyond the last bound: lands in +Inf only
	v := r.CounterVec("app_restarts_total", "restarts by reason", "reason")
	v.With("horizon").Inc()
	v.With(`we"ird\value`).Add(2)
	r.CounterFunc("app_seen_total", "seen", func() float64 { return 12 })
	r.GaugeFunc("app_temp", "temp", func() float64 { return -3.5 })

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	fams, err := ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not lint: %v", err)
	}
	for _, name := range []string{
		"app_ops_total", "app_depth", "app_latency_seconds",
		"app_restarts_total", "app_seen_total", "app_temp",
	} {
		if fams[name] == nil {
			t.Errorf("family %q missing", name)
		}
	}
	if got := fams["app_ops_total"].Samples["app_ops_total"]; got != 3 {
		t.Errorf("app_ops_total = %g, want 3", got)
	}
	if got := fams["app_latency_seconds"].Samples["app_latency_seconds_count"]; got != 3 {
		t.Errorf("histogram count = %g, want 3", got)
	}
	if got := fams["app_restarts_total"].Samples[`app_restarts_total{reason="horizon"}`]; got != 1 {
		t.Errorf("labeled counter = %g, want 1", got)
	}
}

// Counters must be monotone between scrapes of the same registry.
func TestCountersMonotoneAcrossScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("app_ops_total", "ops")
	h := r.Histogram("app_lat_seconds", "lat", LatencyBuckets)
	c.Add(1)
	h.Observe(0.001)
	scrape := func() map[string]*Family {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		fams, err := ParseExposition(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		return fams
	}
	first := scrape()
	c.Add(5)
	h.Observe(0.002)
	second := scrape()
	for fam, f1 := range first {
		if f1.Type == "gauge" {
			continue
		}
		f2 := second[fam]
		for key, v1 := range f1.Samples {
			if strings.HasSuffix(key, "_sum") {
				continue // float sum, monotone too but checked via count
			}
			if v2 := f2.Samples[key]; v2 < v1 {
				t.Errorf("%s regressed: %g -> %g", key, v1, v2)
			}
		}
	}
}
