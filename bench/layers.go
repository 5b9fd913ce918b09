package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rslpa"
	"rslpa/internal/evolution"
)

// serveGET runs one GET through a handler in process and returns how long
// it took and the body: a render cost with no socket in it.
func serveGET(tr *tracer, h http.Handler, name, path string) (time.Duration, *bytes.Buffer) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", path, nil)
	sp := tr.begin(name, 0, 0)
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	took := time.Since(t0)
	tr.end(sp)
	return took, rec.Body
}

// probeReads measures the read path's own costs against the live service,
// after the window: a cold /communities (the first read of a fresh epoch,
// which pays for extraction unless the write path already did), warm
// renders of /communities and /vertex/{v}, and a /metrics scrape. edit
// must be effective; the caller's unwind reverts it.
func (r *rig) probeReads(res *windowResult, edit rslpa.Edit) {
	h := r.svc.Handler()
	err := r.svc.Submit(edit)
	if err == nil {
		err = r.svc.Drain()
	}
	res.checks = append(res.checks, check{Name: "read probe could publish a fresh epoch", OK: err == nil, Detail: fmt.Sprint(err)})
	cold, _ := serveGET(r.tr, h, "render /communities (cold)", "/communities")
	res.layer["stream.cold_communities_ms"] = float64(cold) / 1e6

	const warmReads, vertexReads, scrapes = 5, 200, 5
	var warm, vertex, scrape time.Duration
	var body int
	for i := 0; i < warmReads; i++ {
		took, b := serveGET(r.tr, h, "render /communities", "/communities")
		warm, body = warm+took, b.Len()
	}
	for v := 0; v < vertexReads; v++ {
		took, _ := serveGET(r.tr, h, "render /vertex/{v}", "/vertex/"+strconv.Itoa(v))
		vertex += took
	}
	for i := 0; i < scrapes; i++ {
		took, _ := serveGET(r.tr, h, "scrape /metrics", "/metrics")
		scrape += took
	}
	res.layer["stream.render_communities_us"] = float64(warm) / 1e3 / warmReads
	res.layer["stream.communities_body_kb"] = float64(body) / 1024
	res.layer["stream.render_vertex_us"] = float64(vertex) / 1e3 / vertexReads
	res.layer["obs.metrics_scrape_us"] = float64(scrape) / 1e3 / scrapes

	// The service's own telemetry, read back: histogram means from
	// /metrics and the journal stage from the /debug/batches span trees. A
	// series or span the service no longer exposes under that name must
	// fail the run, not read as a layer that did no work.
	_, metrics := serveGET(nil, h, "", "/metrics")
	sums := scrapeSeries(metrics.String())
	waitSum, okSum := sums["rslpa_stream_queue_wait_seconds_sum"]
	waitCount, okCount := sums["rslpa_stream_queue_wait_seconds_count"]
	res.layer["stream.queue_wait_ms"] = 1e3 * ratio(waitSum, waitCount)
	_, traces := serveGET(nil, h, "", "/debug/batches")
	journalMS, journalSpans, err := journalMillis(traces.Bytes())
	res.layer["stream.journal_ms_per_batch"] = journalMS
	journaled := r.def.opts.JournalDepth > 0
	res.checks = append(res.checks, check{Name: "service telemetry the harness reads back is there",
		OK: okSum && okCount && err == nil && (journalSpans > 0) == journaled,
		Detail: fmt.Sprintf("queue-wait series sum=%v count=%v, %d journal spans with journaling %v, decode error %v",
			okSum, okCount, journalSpans, journaled, err)})
}

// scrapeSeries parses the unlabelled series of a Prometheus text
// exposition into name → value.
func scrapeSeries(text string) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// journalMillis is the mean duration of the "journal" span over the
// recent batch traces of a /debug/batches body, and how many there were
// (none with journaling off).
func journalMillis(body []byte) (ms float64, n int, err error) {
	var ring struct {
		Recent []struct {
			Spans []struct {
				Name   string `json:"name"`
				Micros int64  `json:"micros"`
			} `json:"spans"`
		} `json:"recent"`
	}
	if err := json.Unmarshal(body, &ring); err != nil {
		return 0, 0, fmt.Errorf("decode /debug/batches: %w", err)
	}
	var total float64
	for _, bt := range ring.Recent {
		for _, s := range bt.Spans {
			if s.Name == "journal" {
				total += float64(s.Micros)
				n++
			}
		}
	}
	return ratio(total/1e3, float64(n)), n, nil
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// Sampling of the shadow replay's expensive stages: a checkpoint save
// every saveEvery batches (the service's CheckpointEvery default) and an
// extraction plus evolution diff on at most extractSamples batches.
const (
	saveEvery      = 16
	extractSamples = 4
)

// shadowReplay restores a second detector from the start-state checkpoint
// and replays the run's batch sequence through the layers' public
// functions in pipeline order, one root span per batch: canonicalize,
// Update, and — sampled, only when tracing — Save, Extract and the
// evolution diff. It returns the per-layer values it measured and the
// label hash of the replayed state.
func (r *rig) shadowReplay(batches [][]rslpa.Edit) (map[string]float64, uint64, error) {
	f, err := os.Open(r.ckptPath)
	if err != nil {
		return nil, 0, err
	}
	var shadow *rslpa.Detector
	t0 := time.Now()
	err = r.tr.call("LoadDetector", func() (err error) {
		shadow, err = rslpa.LoadDetector(f, r.def.detect)
		return err
	})
	loadMS := float64(time.Since(t0)) / 1e6
	f.Close()
	if err != nil {
		return nil, 0, fmt.Errorf("restore shadow detector: %w", err)
	}
	defer shadow.Close()

	full := r.cfg.trace
	var tracker *evolution.Tracker
	extract := func(parent int, epoch uint64) ([][]uint32, error) {
		sp := r.tr.begin("postprocess.Extract", parent, epoch)
		defer r.tr.end(sp)
		res, err := shadow.Communities()
		if err != nil {
			return nil, err
		}
		return res.Communities.Communities(), nil
	}
	if full {
		comms, err := extract(0, 0)
		if err != nil {
			return nil, 0, err
		}
		tracker = evolution.New(evolution.Config{Depth: 8})
		tracker.Rebase(0, comms)
	}
	stride := max(1, (len(batches)+extractSamples-1)/extractSamples)

	var (
		rawEdits, netEdits, saves, saveBytes, diffs, events float64
		canonNS, updateNS, saveNS                           float64
		touched, repicked, rounds, skipped, dirty, mallocs  float64
		engRounds, engMsgs, engBytes                        float64
		ms                                                  runtime.MemStats
	)
	save := func(parent int, epoch uint64) error {
		var w countingWriter
		sp := r.tr.begin("Detector.Save", parent, epoch)
		t0 := time.Now()
		err := shadow.Save(&w)
		saveNS += float64(time.Since(t0))
		r.tr.end(sp)
		saves++
		saveBytes = float64(w.n)
		return err
	}
	for i, raw := range batches {
		epoch := uint64(i + 1)
		root := r.tr.begin("batch", 0, epoch)

		sp := r.tr.begin("graph.Canonicalize", root, epoch)
		t0 := time.Now()
		canon := rslpa.Canonicalize(shadow.Graph(), raw)
		canonNS += float64(time.Since(t0))
		r.tr.end(sp)
		rawEdits += float64(len(raw))
		netEdits += float64(len(canon))

		var before uint64
		if full {
			runtime.ReadMemStats(&ms)
			before = ms.Mallocs
		}
		r0, m0, b0, _ := shadow.EngineStats()
		sp = r.tr.begin("Detector.Update", root, epoch)
		t0 = time.Now()
		st, err := shadow.Update(canon)
		updateNS += float64(time.Since(t0))
		r.tr.end(sp)
		if err != nil {
			return nil, 0, fmt.Errorf("shadow update %d: %w", i, err)
		}
		if full {
			runtime.ReadMemStats(&ms)
			mallocs += float64(ms.Mallocs - before)
		}
		r1, m1, b1, _ := shadow.EngineStats()
		engRounds, engMsgs, engBytes = engRounds+float64(r1-r0), engMsgs+float64(m1-m0), engBytes+float64(b1-b0)
		touched, repicked = touched+float64(st.Touched), repicked+float64(st.Repicked)
		rounds, skipped = rounds+float64(st.RoundsRun), skipped+float64(st.LevelsSkipped)
		dirty += float64(len(st.Dirty))

		if full && (i+1)%saveEvery == 0 {
			if err := save(root, epoch); err != nil {
				return nil, 0, err
			}
		}
		if full && i%stride == 0 {
			comms, err := extract(root, epoch)
			if err != nil {
				return nil, 0, err
			}
			sp := r.tr.begin("evolution.Advance", root, epoch)
			evs, err := tracker.Advance(uint64(diffs)+1, comms)
			r.tr.end(sp)
			if err != nil {
				return nil, 0, err
			}
			diffs++
			events += float64(len(evs))
		}
		r.tr.end(root)
	}
	if full && saves == 0 {
		if err := save(0, 0); err != nil {
			return nil, 0, err
		}
	}
	hash := labelHash(uint32(r.graph.MaxVertexID()), shadow.Labels)

	nb := float64(len(batches))
	vals := map[string]float64{
		"core.checkpoint_load_ms":       loadMS,
		"graph.coalesce_ns_per_edit":    ratio(canonNS, rawEdits),
		"core.touched_per_edit":         ratio(touched, netEdits),
		"core.repicked_per_edit":        ratio(repicked, netEdits),
		"core.rounds_run_per_batch":     ratio(rounds, nb),
		"core.levels_skipped_per_batch": ratio(skipped, nb),
		"core.dirty_vertices_per_batch": ratio(dirty, nb),
		"core.update_allocs_per_batch":  ratio(mallocs, nb),
		"core.checkpoint_save_ms":       ratio(saveNS/1e6, saves),
		"core.checkpoint_mb":            saveBytes / (1 << 20),
		"postprocess.edges_weighted":    float64(shadow.Graph().NumEdges()),
		"evolution.events_per_epoch":    ratio(events, diffs),
		"cluster.rounds_per_batch":      ratio(engRounds, nb),
		"cluster.messages_per_edit":     ratio(engMsgs, netEdits),
		"cluster.wire_bytes_per_edit":   ratio(engBytes, netEdits),
	}
	if r.def.detect.Workers > 1 {
		vals["dist.detect_s"] = r.detectS
		vals["dist.update_ms_per_batch"] = ratio(updateNS/1e6, nb)
	} else {
		vals["core.detect_s"] = r.detectS
		vals["core.update_us_per_batch"] = ratio(updateNS/1e3, nb)
		vals["core.update_us_per_edit"] = ratio(updateNS/1e3, netEdits)
	}
	return vals, hash, nil
}

// streamDeltas derives the stream.* layer metrics from the writer's own
// counters at the two ends of the window.
func streamDeltas(before, after rslpa.ServiceStats) map[string]float64 {
	batches := float64(after.Batches - before.Batches)
	submitted := float64(after.SubmittedEdits - before.SubmittedEdits)
	return map[string]float64{
		"stream.batches":                  batches,
		"stream.batch_edits_mean":         ratio(float64(after.AppliedEdits-before.AppliedEdits), batches),
		"stream.update_ms_per_batch":      ratio(float64(after.TotalUpdateMicros-before.TotalUpdateMicros)/1e3, batches),
		"stream.publish_ms_per_batch":     ratio(float64(after.TotalPublishMicros-before.TotalPublishMicros)/1e3, batches),
		"stream.evolution_ms_per_batch":   ratio(float64(after.TotalEvolutionMicros-before.TotalEvolutionMicros)/1e3, batches),
		"stream.shards_republished_ratio": ratio(float64(after.ShardsRepublished-before.ShardsRepublished), batches*float64(after.SnapshotShards)),
		"stream.flush_errors":             float64(after.FlushErrors - before.FlushErrors),
		"graph.coalesced_ratio":           ratio(float64(after.CoalescedEdits-before.CoalescedEdits), submitted),
	}
}
