package main

import (
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"time"

	"rslpa"
)

func smallGraph(t *testing.T, seed uint64) *rslpa.Graph {
	t.Helper()
	p := rslpa.DefaultLFR(1000)
	p.Seed = lfrSeed(seed)
	g, _, err := rslpa.GenerateLFR(p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The same seed must give byte-identical inputs, another seed different
// ones: pool, hot-edge bursts and read mix alike.
func TestInputsFollowTheSeed(t *testing.T) {
	type inputs struct {
		pool  []rslpa.Edit
		burst []rslpa.Edit
		reads []string
	}
	gen := func(seed uint64) inputs {
		g := smallGraph(t, seed)
		return inputs{
			pool:  newPool(g, newRand(seed, saltPool), 400),
			burst: newFlapper(g, newRand(seed, saltHot), 64, 48).burst(512),
			reads: readMix(g, newRand(seed, saltReads), 100),
		}
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different inputs")
	}
	if reflect.DeepEqual(a.pool, c.pool) || reflect.DeepEqual(a.burst, c.burst) || reflect.DeepEqual(a.reads, c.reads) {
		t.Error("different seeds produced equal inputs")
	}
	if got, want := dueAt(time.Unix(0, 0), 10*time.Millisecond, 7), time.Unix(0, 70e6); !got.Equal(want) {
		t.Errorf("schedule: request 7 due at %v, want %v", got, want)
	}
}

// Every pool edit is effective forward and again inverted, and the unwind
// returns the graph to its start state from any position.
func TestPoolStaysEffectiveAndUnwinds(t *testing.T) {
	g := smallGraph(t, 3)
	start := g.Edges()
	cur := &cursor{pool: newPool(g, newRand(3, saltPool), 200)}
	apply := func(edits []rslpa.Edit) {
		for _, e := range edits {
			var changed bool
			if e.Op == rslpa.Insert {
				changed = g.AddEdge(e.U, e.V)
			} else {
				changed = g.RemoveEdge(e.U, e.V)
			}
			if !changed {
				t.Fatalf("edit %+v at position %d had no effect", e, cur.pos)
			}
		}
	}
	for _, n := range []int{70, 200, 333} { // mid forward pass, mid inverted pass, forward again
		apply(cur.next(n))
		check := g.Clone()
		for _, e := range cur.unwind() {
			if e.Op == rslpa.Insert {
				check.AddEdge(e.U, e.V)
			} else {
				check.RemoveEdge(e.U, e.V)
			}
		}
		if !reflect.DeepEqual(check.Edges(), start) {
			t.Fatalf("unwind from position %d does not restore the start graph", cur.pos)
		}
	}
}

// A burst of toggles over few hot edges must mostly coalesce away, and the
// flapper must find its way back to the start state.
func TestFlapperCoalescesAndUnwinds(t *testing.T) {
	g := smallGraph(t, 5)
	fl := newFlapper(g, newRand(5, saltHot), 64, 48)
	burst := fl.burst(512)
	if net := len(rslpa.Canonicalize(g, burst)); net > 48 {
		t.Errorf("512 toggles over 48 edges left %d net edits", net)
	}
	all := append(burst, fl.unwind()...)
	if net := rslpa.Canonicalize(g, all); len(net) != 0 {
		t.Errorf("burst plus unwind leaves %d net edits, want 0", len(net))
	}
}

// An open loop charges a stall to every request queued behind it: latency
// is measured from the due time, not from when the sink got round to it.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const (
		interval = 2 * time.Millisecond
		stall    = 60 * time.Millisecond
		stalled  = 3
	)
	start := time.Now().Add(5 * time.Millisecond)
	res := runOpenLoop(start, interval, 12, 1, func(i int) error {
		if i == stalled {
			time.Sleep(stall)
		}
		if i == 11 {
			return errors.New("refused")
		}
		return nil
	})
	for i := stalled; i < stalled+5; i++ {
		lat := res.done[i].Sub(dueAt(start, interval, i))
		if want := stall - time.Duration(i-stalled)*interval; lat < want {
			t.Errorf("request %d: latency %v from due time, want at least %v", i, lat, want)
		}
	}
	if lat := res.done[0].Sub(dueAt(start, interval, 0)); lat > stall/2 {
		t.Errorf("request 0, ahead of the stall, took %v", lat)
	}
	// The generator itself never waited for the sink.
	for i, late := range res.late {
		if late > stall/2 {
			t.Errorf("generator handed over request %d %v late", i, late)
		}
	}
	if res.failed != 1 || !res.done[11].IsZero() {
		t.Errorf("failed = %d, done[11] = %v; want one failure without a completion", res.failed, res.done[11])
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		q         float64
		want      float64
		supported bool
	}{
		{1000, 0.99, 990, true},   // ten beyond
		{999, 0.99, 990, false},   // nine beyond
		{200, 0.95, 190, true},    // ten beyond
		{100, 0.95, 95, false},    // five beyond
		{21, 0.50, 11, true},      // ten beyond the median
		{20, 0.50, 10, true},      // ten beyond
		{19, 0.50, 10, false},     // nine beyond
		{0, 0.50, 0, false},       // nothing measured
		{1000, 0.999, 999, false}, // one beyond
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.supported {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.supported)
		}
	}
	// Ties at the percentile are not beyond it.
	ties := append(seq(100), make([]float64, 20)...)
	for i := 100; i < 120; i++ {
		ties[i] = 100
	}
	if _, ok := percentile(ties, 0.9); ok {
		t.Error("twenty samples equal to the percentile counted as beyond it")
	}
}

func TestJoinEpochs(t *testing.T) {
	ins := func(u, v uint32) rslpa.Edit { return rslpa.Edit{Op: rslpa.Insert, U: u, V: v} }
	del := func(u, v uint32) rslpa.Edit { return rslpa.Edit{Op: rslpa.Delete, U: u, V: v} }
	submitted := []rslpa.Edit{
		ins(1, 2), // 0: applied in epoch 1
		del(3, 4), // 1: applied in epoch 1
		ins(5, 6), // 2: cancelled by 3 inside one batch
		del(5, 6), // 3: coalesced away with 2
		del(2, 1), // 4: the inverse of 0, other orientation, epoch 2
		ins(7, 8), // 5: applied in epoch 3
		ins(1, 2), // 6: same edge again, epoch 3
		ins(9, 9), // 7: self-loop, absorbed
	}
	feed := []feedBatch{
		{Epoch: 1, Edits: []rslpa.Edit{ins(1, 2), del(3, 4)}},
		{Epoch: 2, Edits: []rslpa.Edit{del(1, 2)}},
		{Epoch: 3, Edits: []rslpa.Edit{ins(1, 2), ins(7, 8)}},
	}
	epochOf, coalesced := joinEpochs(submitted, feed)
	if want := []uint64{1, 1, 0, 0, 2, 3, 3, 0}; !reflect.DeepEqual(epochOf, want) {
		t.Errorf("epochOf = %v, want %v", epochOf, want)
	}
	if coalesced != 3 {
		t.Errorf("coalesced = %d, want 3", coalesced)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "batch", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "update", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "extract", Start: 30, End: 70}, // overlaps update: counted once
		{ID: 4, Parent: 3, Name: "weights", Start: 35, End: 55},
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 120}, // clipped to the parent
		{ID: 6, Name: "lonely", Start: 5, End: 6},
	}
	selfTimes(spans)
	want := map[string]int64{"batch": 100 - 60 - 10, "update": 30, "extract": 20, "weights": 20, "late": 30, "lonely": 1}
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("self time of %s = %d, want %d", s.Name, s.Self, want[s.Name])
		}
	}
	if ms, n := meanMillis(spans, "update"); n != 1 || ms != 30e-6 {
		t.Errorf("meanMillis(update) = %v, %d", ms, n)
	}
}

func TestTracerRecordsAndNilTracerDoesNot(t *testing.T) {
	var off *tracer
	off.end(off.begin("x", 0, 0))
	off.setEpoch(0, 1)
	if off.finish() != nil {
		t.Error("nil tracer recorded spans")
	}
	tr := newTracer()
	root := tr.begin("batch", 0, 7)
	child := tr.begin("update", root, 0)
	tr.setEpoch(child, 7)
	tr.end(child)
	tr.end(root)
	spans := tr.finish()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Epoch != 7 || spans[0].End < spans[1].End {
		t.Errorf("unexpected spans %+v", spans)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]; median 5.5.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 11, 13], n=4) == [10.0, 11.0, 13.0].
	if got, want := spread([]float64{10, 11, 13}), 3.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if spread([]float64{4}) != 0 || midpoint([]float64{1, 2, 3, 10}) != 2.5 {
		t.Error("single-value spread or even-length median wrong")
	}
}

func TestJudgeVerdicts(t *testing.T) {
	bound := 0.10
	lower := metricSpec{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: &bound}
	higher := metricSpec{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: &bound}
	tight := func(v float64) []float64 { return []float64{v * 0.99, v, v * 1.01} }
	for _, tc := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"slower beyond the bound", lower, tight(100), tight(115), verdictWorse},
		{"slower within the bound", lower, tight(100), tight(108), verdictSame},
		{"faster beyond the bound", lower, tight(100), tight(80), verdictBetter},
		{"less throughput", higher, tight(1000), tight(850), verdictWorse},
		{"more throughput", higher, tight(1000), tight(1200), verdictBetter},
		{"same throughput", higher, tight(1000), tight(1005), verdictSame},
		{"spread wider than the bound", lower, []float64{80, 100, 125}, tight(130), verdictUnresolved},
		{"one side unsupported", lower, tight(100), nil, verdictUnresolved},
		{"single runs resolve by the bound alone", lower, []float64{100}, []float64{120}, verdictWorse},
	} {
		if _, got := judge(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareExitsNonZeroOnlyOnWorse(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(scale float64) []record {
		var recs []record
		for _, w := range spec.workloadNames() {
			rec := record{Workload: w, Metrics: map[string]metricValue{}}
			for _, m := range spec.EndToEnd {
				v := 100 * scale
				if m.Better == "higher" {
					v = 100 / scale
				}
				rec.Metrics[m.Name] = metricValue{Value: &v, Unit: m.Unit}
			}
			recs = append(recs, rec)
		}
		return recs
	}
	sink := io.Discard
	if got := compareRecords(spec, mk(1), mk(1.01), sink); got != 0 {
		t.Errorf("1%% apart: exit %d, want 0", got)
	}
	if got := compareRecords(spec, mk(1), mk(1.5), sink); got != 1 {
		t.Errorf("50%% worse: exit %d, want 1", got)
	}
	if got := compareRecords(spec, mk(1.5), mk(1), sink); got != 0 {
		t.Errorf("50%% better: exit %d, want 0", got)
	}
}

// The prediction table and BENCHMARK.json must describe the same metrics:
// every declared per-layer metric has an entry, and every entry names
// declared workloads and declared end-to-end metrics.
func TestLayerTableMatchesSpec(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	workloads := map[string]bool{"": true}
	for _, w := range spec.workloadNames() {
		workloads[w] = true
		if findWorkload(w) == nil {
			t.Errorf("workload %s is declared but not implemented", w)
		}
	}
	endToEnd := map[string]bool{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = true
	}
	if len(layerMetrics) != len(spec.PerLayer) {
		t.Errorf("table has %d metrics, BENCHMARK.json declares %d", len(layerMetrics), len(spec.PerLayer))
	}
	for _, m := range spec.PerLayer {
		lm, ok := layerMetrics[m.Name]
		if !ok {
			t.Errorf("%s: declared but missing from the table", m.Name)
		}
		for _, w := range lm.on {
			if w == "" || !workloads[w] {
				t.Errorf("%s: measured on unknown workload %q", m.Name, w)
			}
		}
		for _, tg := range lm.moves {
			if !endToEnd[tg.metric] || !workloads[tg.workload] {
				t.Errorf("%s: moves unknown target %+v", m.Name, tg)
			}
			if tg.workload != "" && !lm.measuredOn(tg.workload) {
				t.Errorf("%s: said to move %s on %s, where it is not measured", m.Name, tg.metric, tg.workload)
			}
		}
	}
}

// nonZeroOn names, per workload, layer metrics that must be non-zero
// there: the layers the workload exists to exercise.
var nonZeroOn = map[string][]string{
	"serve-trickle": {"replica.bootstrap_ms", "replica.feed_polls", "replica.replay_ms_per_batch", "replica.gap_p50_ms",
		"stream.visible_p50_ms", "stream.evolution_ms_per_batch", "core.update_us_per_batch"},
	"ingest-flood": {"core.update_us_per_batch", "core.update_us_per_edit", "stream.publish_ms_per_batch", "stream.submit_blocked_ms",
		"stream.saturation_edits_per_s"},
	"dist-tcp": {"dist.detect_s", "dist.update_ms_per_batch", "cluster.rounds_per_batch", "cluster.messages_per_edit",
		"cluster.wire_bytes_per_edit", "stream.saturation_edits_per_s"},
	"read-hotspot": {"graph.coalesced_ratio", "graph.coalesce_ns_per_edit", "stream.cold_communities_ms",
		"stream.render_communities_us", "stream.render_vertex_us", "bench.generator_late_p99_ms"},
}

// everywhere names layer metrics every traced run must measure.
var everywhere = []string{"core.checkpoint_save_ms", "core.checkpoint_load_ms", "core.checkpoint_mb", "core.touched_per_edit",
	"core.rounds_run_per_batch", "core.dirty_vertices_per_batch", "core.update_allocs_per_batch", "postprocess.extract_ms",
	"postprocess.edges_weighted", "evolution.advance_ms", "stream.batches", "stream.batch_edits_mean",
	"stream.update_ms_per_batch", "stream.communities_body_kb", "obs.metrics_scrape_us", "obs.traced_latency_p50_ms",
	"obs.traced_ops_per_s", "bench.samples", "bench.spans"}

// Every workload must run end to end on a small graph, pass its own
// correctness gate, and emit every declared metric as a finite number,
// untraced and traced.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second each")
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		rec *record
		err error
	}
	// The runs mostly wait (warm-up, window, flush interval), so all eight
	// go at once rather than two at a time under t.Parallel.
	results := map[string]chan result{}
	for _, w := range spec.workloadNames() {
		for _, traced := range []bool{false, true} {
			name := w
			if traced {
				name += "/traced"
			}
			ch := make(chan result, 1)
			results[name] = ch
			cfg := runConfig{workload: w, seed: 1, seconds: 2, trace: traced, n: 2000, t: 50, outDir: t.TempDir()}
			go func() {
				rec, err := runWorkload(cfg, spec)
				ch <- result{rec, err}
			}()
		}
	}
	for _, w := range spec.workloadNames() {
		for _, traced := range []bool{false, true} {
			name := w
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res := <-results[name]
				if res.err != nil {
					t.Fatal(res.err)
				}
				rec := res.rec
				for _, c := range rec.Checks {
					// The NMI slack is sized for the benchmark's graph. A
					// 2000-vertex cover has some fifty communities, and its
					// NMI moves by more than that with where the batch
					// boundaries happen to fall. The ingest rates are sized
					// for one run on the machine, not for eight at once under
					// the race detector.
					if !c.OK && c.Name != checkNMI && c.Name != checkBacklog {
						t.Errorf("check failed: %s (%s)", c.Name, c.Detail)
					}
				}
				if rec.Failed != 0 || rec.Attempted < 1 {
					t.Errorf("attempted %d, failed %d", rec.Attempted, rec.Failed)
				}
				declared := spec.declared(traced)
				if len(rec.Metrics) != len(declared) {
					t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(rec.Metrics), len(declared))
				}
				for _, m := range declared {
					got, ok := rec.Metrics[m.Name]
					if !ok || got.Unit != m.Unit || math.IsNaN(got.raw) || math.IsInf(got.raw, 0) {
						t.Errorf("metric %s: emitted %+v, declared unit %q", m.Name, got, m.Unit)
					}
					if !traced && got.raw <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, got.raw)
					}
				}
				if traced {
					for _, m := range append(everywhere, nonZeroOn[w]...) {
						if rec.Metrics[m].raw <= 0 {
							t.Errorf("layer metric %s = %v on %s, want > 0", m, rec.Metrics[m].raw, w)
						}
					}
					if rec.Provenance.SpanFile == "" {
						t.Error("traced run wrote no span file")
					}
				}
				if _, err := rec.contractLine(); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// The BSP engine's counts are a pure function of the batch sequence: two
// shadow replays of the same batches must agree exactly.
func TestClusterCountsRepeatExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a two-worker TCP cluster")
	}
	def := findWorkload("dist-tcp")
	cfg := runConfig{workload: def.name, seed: 4, seconds: 1, n: 1000, t: 50, outDir: t.TempDir()}
	r, _, err := setUp(cfg, def, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	full := cursor{pool: newPool(r.graph, newRand(cfg.seed, saltPool), 512)}
	batches := [][]rslpa.Edit{full.next(128), full.next(128), full.next(256)}
	first, h1, err := r.shadowReplay(batches)
	if err != nil {
		t.Fatal(err)
	}
	second, h2, err := r.shadowReplay(batches)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("label hashes differ: %016x vs %016x", h1, h2)
	}
	for _, m := range []string{"cluster.rounds_per_batch", "cluster.messages_per_edit", "cluster.wire_bytes_per_edit"} {
		if first[m] != second[m] || first[m] == 0 {
			t.Errorf("%s: %v then %v, want equal and non-zero", m, first[m], second[m])
		}
	}
}
