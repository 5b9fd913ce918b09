package main

import (
	"slices"
	"strings"
)

// Workload and end-to-end metric names, as BENCHMARK.json declares them.
const (
	wTrickle = "serve-trickle"
	wFlood   = "ingest-flood"
	wDist    = "dist-tcp"
	wHotspot = "read-hotspot"

	mSetup = "setup_s"
	mP50   = "latency_p50_ms"
	mTail  = "latency_p99_ms"
	mOps   = "ops_per_s"
	mHeap  = "heap_live_mb"
	mNMI   = "nmi_final"
)

// target is an end-to-end metric on a workload. An empty workload means
// every workload that measures the layer metric.
type target struct{ metric, workload string }

// layerMetric is what the benchmark predicts for one per-layer metric of
// BENCHMARK.json, whose schema has no room for it: the workloads whose
// traced run measures it (nil: all of them; on any other workload the
// layer is never entered and the metric is 0 by design), and the
// end-to-end metrics a change to it should move. A metric with no target
// reports the harness's own health.
type layerMetric struct {
	on    []string
	moves []target
}

var (
	sequential  = []string{wTrickle, wFlood, wHotspot}
	trickleOnly = []string{wTrickle}
	distOnly    = []string{wDist}

	coldRead    = []target{{mTail, wHotspot}}
	warmRead    = []target{{mP50, wHotspot}}
	floodIngest = []target{{mP50, wFlood}, {mTail, wFlood}}
	distIngest  = []target{{mP50, wDist}, {mTail, wDist}}
	visible     = []target{{mP50, wTrickle}}
	visibleTail = []target{{mP50, wTrickle}, {mTail, wTrickle}}
	extraction  = []target{{mP50, wTrickle}, {mTail, wHotspot}}
)

// layerMetrics is keyed by per-layer metric name and covers every one
// BENCHMARK.json declares (a test holds the two together). A traced run
// fails when it did not measure a metric on a workload this table says
// measures it.
var layerMetrics = map[string]layerMetric{
	"graph.coalesce_ns_per_edit": {moves: coldRead},
	"graph.coalesced_ratio":      {moves: coldRead},

	"core.detect_s":           {on: sequential, moves: []target{{mSetup, ""}}},
	"core.checkpoint_save_ms": {moves: []target{{mSetup, wTrickle}, {mTail, wTrickle}}},
	"core.checkpoint_load_ms": {moves: []target{{mSetup, wTrickle}}},
	"core.checkpoint_mb":      {moves: []target{{mSetup, wTrickle}, {mHeap, wTrickle}}},

	"core.update_us_per_batch":      {on: sequential, moves: floodIngest},
	"core.update_us_per_edit":       {on: sequential, moves: floodIngest},
	"core.touched_per_edit":         {moves: floodIngest},
	"core.repicked_per_edit":        {moves: floodIngest},
	"core.rounds_run_per_batch":     {moves: floodIngest},
	"core.levels_skipped_per_batch": {moves: floodIngest},
	"core.dirty_vertices_per_batch": {moves: floodIngest},
	"core.update_allocs_per_batch":  {moves: floodIngest},

	"dist.detect_s":               {on: distOnly, moves: []target{{mSetup, wDist}}},
	"dist.update_ms_per_batch":    {on: distOnly, moves: distIngest},
	"cluster.rounds_per_batch":    {moves: distIngest},
	"cluster.messages_per_edit":   {moves: distIngest},
	"cluster.wire_bytes_per_edit": {moves: distIngest},

	"postprocess.extract_ms":     {moves: extraction},
	"postprocess.edges_weighted": {moves: extraction},
	"evolution.advance_ms":       {moves: visible},
	"evolution.events_per_epoch": {moves: visible},

	"stream.queue_wait_ms":            {moves: floodIngest},
	"stream.saturation_edits_per_s":   {on: []string{wFlood, wDist}, moves: []target{{mP50, wFlood}, {mP50, wDist}}},
	"stream.submit_blocked_ms":        {moves: floodIngest},
	"stream.batch_edits_mean":         {moves: floodIngest},
	"stream.batches":                  {moves: floodIngest},
	"stream.update_ms_per_batch":      {moves: floodIngest},
	"stream.publish_ms_per_batch":     {moves: floodIngest},
	"stream.shards_republished_ratio": {moves: floodIngest},
	"stream.queue_depth_end":          {moves: floodIngest},
	"stream.flush_errors":             {moves: floodIngest},
	"stream.journal_ms_per_batch":     {moves: visibleTail},
	"stream.evolution_ms_per_batch":   {moves: visible},
	"stream.visible_p50_ms":           {on: trickleOnly, moves: visible},
	"stream.cold_communities_ms":      {moves: coldRead},
	"stream.render_communities_us":    {moves: warmRead},
	"stream.render_vertex_us":         {moves: warmRead},
	"stream.communities_body_kb":      {moves: warmRead},

	"replica.bootstrap_ms":        {on: trickleOnly, moves: []target{{mSetup, wTrickle}}},
	"replica.replay_ms_per_batch": {on: trickleOnly, moves: visibleTail},
	"replica.gap_p50_ms":          {on: trickleOnly, moves: visibleTail},
	"replica.feed_polls":          {on: trickleOnly, moves: visibleTail},
	"replica.rebootstraps":        {on: trickleOnly, moves: visibleTail},
	"obs.traced_latency_p50_ms":   {moves: []target{{mP50, ""}}},
	"obs.traced_ops_per_s":        {moves: []target{{mOps, ""}}},
	"obs.metrics_scrape_us":       {},
	"bench.generator_late_p99_ms": {},
	"bench.coalesced_away":        {on: trickleOnly},
	"bench.samples":               {},
	"bench.spans":                 {},
}

// measuredOn reports whether a traced run of the workload must measure the
// metric.
func (lm layerMetric) measuredOn(workload string) bool {
	return lm.on == nil || slices.Contains(lm.on, workload)
}

// movesText renders the targets for the traced report: "→ metric@workload".
func (lm layerMetric) movesText() string {
	var parts []string
	for _, tg := range lm.moves {
		w := tg.workload
		if w == "" {
			w = "same workload"
		}
		parts = append(parts, tg.metric+"@"+w)
	}
	if parts == nil {
		return ""
	}
	return "→ " + strings.Join(parts, ", ")
}
