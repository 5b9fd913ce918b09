package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"text/tabwriter"
	"time"

	"rslpa"
)

// maxGeneratorLateMS marks a run void: an open-loop generator that ran
// later than this at its p99 was not driving the load the workload names.
// A void run is flagged in its record and left out by -compare. It still
// exits 0: the benchmark contract has every run end that way, and the
// lateness is charged to the samples anyway, since operations are timed
// from their due time.
const maxGeneratorLateMS = 20

// setupReps is how many times a run builds the system to time set-up.
const setupReps = 3

// Checks the tests refer to by name: the cover-quality check every
// workload runs, and the ingest workloads' queue check.
const (
	checkNMI     = "served cover still matches the planted truth"
	checkBacklog = "no growing backlog"
)

// nmiSlack is how far the served cover's NMI after the unwind may fall
// below the initial detection's before the run counts as incorrect.
const nmiSlack = 0.05

// metricValue is one reported metric. Value is null in result files when
// the metric is a percentile without minBeyond samples beyond it.
type metricValue struct {
	Value   *float64 `json:"value"`
	Unit    string   `json:"unit"`
	Samples int      `json:"samples,omitempty"`
	raw     float64  // the number as measured, supported or not
}

// provenance records where and how a result was measured.
type provenance struct {
	Commit         string  `json:"commit"`
	GoVersion      string  `json:"go_version"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	NumCPU         int     `json:"nproc"`
	Vertices       int     `json:"vertices"`
	WarmupSeconds  float64 `json:"warmup_seconds"`
	WindowSeconds  float64 `json:"window_seconds"`
	GeneratorLate  float64 `json:"generator_late_p99_ms"`
	WallSeconds    float64 `json:"wall_seconds"`
	SpanFile       string  `json:"span_file,omitempty"`
	MeasuredAtUnix int64   `json:"measured_at_unix"`
}

// record is the full result of one run of one workload: what -out appends
// and -compare reads.
type record struct {
	Workload   string                 `json:"workload"`
	Seed       uint64                 `json:"seed"`
	Trace      bool                   `json:"trace"`
	Correct    bool                   `json:"correct"`
	Void       bool                   `json:"void"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics"`
	Checks     []check                `json:"checks"`
	Provenance provenance             `json:"provenance"`
}

// contractLine is the last line of standard output: exactly the keys the
// benchmark contract names.
func (rec *record) contractLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(rec.Metrics))
	for name, m := range rec.Metrics {
		metrics[name] = value{m.raw, m.Unit}
	}
	return json.Marshal(map[string]any{
		"correct":   rec.Correct,
		"attempted": rec.Attempted,
		"failed":    rec.Failed,
		"metrics":   metrics,
	})
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown" // the driver's checkout is not a git repository
}

// runWorkload sets the system up, runs one workload's traffic, checks the
// outputs and assembles the declared metrics.
func runWorkload(cfg runConfig, spec *benchSpec) (*record, error) {
	def := findWorkload(cfg.workload)
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, spec.workloadNames())
	}
	wall := time.Now()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	// The start state is checkpointed where something replays from it: the
	// follower workload's bit-identity check, and every traced run.
	shadow := def.follower || cfg.trace
	// One set-up's time follows the machine's mood of that second (the
	// two-worker cluster's varies by half), so the run sets up setupReps
	// times, reports the median and keeps the last system. A traced run
	// does not report set-up time and sets up once.
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var r *rig
	var setupTook []float64
	for rep := 1; ; rep++ {
		built, took, err := setUp(cfg, def, shadow && rep == reps)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTook = append(setupTook, took.Seconds())
		if r = built; rep == reps {
			break
		}
		r.close()
	}
	defer r.close()
	r.tr = tr

	nVertices := r.graph.NumVertices()
	first, err := r.svc.Snapshot().Communities()
	if err != nil {
		return nil, fmt.Errorf("initial extraction: %w", err)
	}
	nmiStart := rslpa.NMI(first.Communities, r.truth, nVertices)

	res, err := def.run(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}

	last, err := res.final.Communities()
	if err != nil {
		return nil, fmt.Errorf("final extraction: %w", err)
	}
	nmiFinal := rslpa.NMI(last.Communities, r.truth, nVertices)
	res.checks = append(res.checks, check{Name: checkNMI,
		OK:     nmiFinal >= nmiStart-nmiSlack,
		Detail: fmt.Sprintf("NMI %.4f after the unwind, %.4f at the start", nmiFinal, nmiStart)})

	layer := res.layer
	if shadow {
		vals, hash, err := r.shadowReplay(res.replay)
		if err != nil {
			return nil, fmt.Errorf("shadow replay: %w", err)
		}
		if cfg.trace {
			for k, v := range vals {
				layer[k] = v
			}
		}
		if def.follower {
			// Only the journaled workload replays the served batch
			// sequence itself, so only there must the states agree.
			served := labelHash(uint32(r.graph.MaxVertexID()), res.final.Labels)
			res.checks = append(res.checks, check{Name: "shadow replay bit-identical to the served snapshot",
				OK: hash == served, Detail: fmt.Sprintf("shadow %016x, served %016x", hash, served)})
		}
	}

	lat := millis(res.latency)
	if len(lat) == 0 {
		return nil, fmt.Errorf("%s: no headline operation started and completed inside the window", def.name)
	}
	p50, p50ok := percentile(lat, 0.50)
	p99, p99ok := percentile(lat, 0.99)
	late := millis(res.late)
	lateP99, _ := percentile(late, 0.99)

	rec := &record{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		Attempted: max(res.attempted, 1), Failed: res.failed,
		Checks:  res.checks,
		Metrics: make(map[string]metricValue),
		Void:    lateP99 > maxGeneratorLateMS,
	}
	rec.Correct = res.failed == 0
	for _, c := range res.checks {
		rec.Correct = rec.Correct && c.OK
	}

	// measured holds the run's values by metric name; a percentile without
	// minBeyond samples beyond it is unsupported.
	type measurement struct {
		value       float64
		samples     int
		unsupported bool
	}
	measured := map[string]measurement{}
	opsPerS := ratio(float64(res.ops), res.elapsed.Seconds())
	if cfg.trace {
		for k, v := range streamDeltas(res.before, res.after) {
			layer[k] = v
		}
		spans := tr.finish()
		layer["postprocess.extract_ms"], _ = meanMillis(spans, "postprocess.Extract")
		layer["evolution.advance_ms"], _ = meanMillis(spans, "evolution.Advance")
		layer["bench.generator_late_p99_ms"] = lateP99
		layer["bench.samples"] = float64(len(lat))
		layer["bench.spans"] = float64(len(spans))
		// The traced run's own headline numbers: set beside the untraced
		// run's they give the tracing overhead.
		layer["obs.traced_latency_p50_ms"] = p50
		layer["obs.traced_ops_per_s"] = opsPerS
		for k, v := range layer {
			measured[k] = measurement{value: v}
		}
		if rec.Provenance.SpanFile, err = writeSpans(cfg.outDir, cfg.workload, spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	} else {
		measured[mSetup] = measurement{value: median(setupTook), samples: setupReps}
		measured[mP50] = measurement{p50, len(lat), !p50ok}
		measured[mTail] = measurement{p99, len(lat), !p99ok}
		measured[mOps] = measurement{value: opsPerS, samples: res.ops}
		measured[mHeap] = measurement{value: res.heapMB}
		measured[mNMI] = measurement{value: nmiFinal}
	}
	for _, m := range spec.declared(cfg.trace) {
		got, ok := measured[m.Name]
		if lm, known := layerMetrics[m.Name]; cfg.trace && known && !lm.measuredOn(cfg.workload) {
			// The workload never enters this layer (the follower on a
			// flood): its work there is zero by design.
			ok = true
		}
		if !ok || math.IsNaN(got.value) || math.IsInf(got.value, 0) {
			return nil, fmt.Errorf("declared metric %q was not measured (got %v)", m.Name, got.value)
		}
		mv := metricValue{Unit: m.Unit, Samples: got.samples, raw: got.value}
		if !got.unsupported {
			mv.Value = &got.value
		}
		rec.Metrics[m.Name] = mv
	}
	rec.Provenance = provenance{
		Commit: commit(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Vertices: nVertices, WarmupSeconds: cfg.warmup().Seconds(), WindowSeconds: cfg.window().Seconds(),
		GeneratorLate: lateP99,
		WallSeconds:   time.Since(wall).Seconds(), SpanFile: rec.Provenance.SpanFile,
		MeasuredAtUnix: time.Now().Unix(),
	}
	return rec, nil
}

// print writes the human-readable report of one run.
func (rec *record) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  correct %v  void %v  attempted %d  failed %d  (%.1fs wall)\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Correct, rec.Void, rec.Attempted, rec.Failed, rec.Provenance.WallSeconds)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, name := range names {
		m := rec.Metrics[name]
		val := "null (too few samples beyond it)"
		if m.Value != nil {
			val = fmt.Sprintf("%.6g", *m.Value)
		}
		n := ""
		if m.Samples > 0 {
			n = fmt.Sprintf("n=%d", m.Samples)
		}
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\t%s\n", name, val, m.Unit, n, layerMetrics[name].movesText())
	}
	tw.Flush()
	for _, c := range rec.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %s (%s)\n", verdict, c.Name, c.Detail)
	}
	fmt.Fprintf(w, "  generator late p99 %.3f ms (void above %d ms; -compare leaves void runs out)\n",
		rec.Provenance.GeneratorLate, maxGeneratorLateMS)
}
