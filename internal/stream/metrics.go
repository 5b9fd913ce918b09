package stream

import (
	"runtime/metrics"
	"time"

	"rslpa/internal/obs"
)

// streamMetrics holds the service's hot-path instruments (histograms fed
// by the maintenance goroutine and the query path). Everything already
// counted in Stats is exposed as read-through Func metrics instead, so
// the counters live in one place and the scrape reads them on demand. A
// nil *streamMetrics (Options.Obs unset) disables instrumentation; the
// individual obs types are nil-safe on top of that.
type streamMetrics struct {
	updateSeconds     *obs.Histogram
	publishSeconds    *obs.Histogram
	queueWaitSeconds  *obs.Histogram
	checkpointSeconds *obs.Histogram
	querySeconds      *obs.Histogram
	batchEdits        *obs.Histogram
}

// newStreamMetrics registers the service's metric families in r. The
// read-through closures call s.Stats(), which takes the service mutex —
// scrape-time cost only, never on the batch path. Registration is
// get-or-create, so a follower re-registering across replay generations
// keeps the owned histograms cumulative and repoints the closures at the
// live generation.
func newStreamMetrics(r *obs.Registry, s *Service) *streamMetrics {
	if r == nil {
		return nil
	}
	m := &streamMetrics{
		updateSeconds: r.Histogram("rslpa_stream_update_seconds",
			"Detector Update latency per applied batch.", obs.LatencyBuckets),
		publishSeconds: r.Histogram("rslpa_stream_publish_seconds",
			"Copy-on-write snapshot publish latency per batch.", obs.LatencyBuckets),
		queueWaitSeconds: r.Histogram("rslpa_stream_queue_wait_seconds",
			"Time from a batch's first edit entering the coalescer to its Update starting.", obs.LatencyBuckets),
		checkpointSeconds: r.Histogram("rslpa_stream_checkpoint_seconds",
			"Checkpoint latency: a durable checkpoint file write, or a GET /checkpoint encode at the head.", obs.LatencyBuckets),
		querySeconds: r.Histogram("rslpa_stream_query_seconds",
			"HTTP read-endpoint latency (/communities, /vertex, /community/{id}/history).", obs.LatencyBuckets),
		batchEdits: r.Histogram("rslpa_stream_batch_edits",
			"Canonical net edits per applied batch.", obs.CountBuckets),
	}

	stat := func(get func(Stats) float64) func() float64 {
		return func() float64 { return get(s.Stats()) }
	}
	r.GaugeFunc("rslpa_stream_queue_depth",
		"Edits waiting in the bounded ingest queue.",
		stat(func(st Stats) float64 { return float64(st.QueueDepth) }))
	r.GaugeFunc("rslpa_stream_queue_capacity",
		"Capacity of the ingest queue; Submit blocks when depth reaches it.",
		stat(func(st Stats) float64 { return float64(st.QueueCapacity) }))
	r.GaugeFunc("rslpa_stream_epoch",
		"Epoch of the currently published snapshot (batches applied).",
		stat(func(st Stats) float64 { return float64(st.Epoch) }))
	r.GaugeFunc("rslpa_stream_snapshot_vertices",
		"Vertices in the current snapshot's graph.",
		stat(func(st Stats) float64 { return float64(st.Vertices) }))
	r.GaugeFunc("rslpa_stream_snapshot_edges",
		"Edges in the current snapshot's graph.",
		stat(func(st Stats) float64 { return float64(st.Edges) }))
	r.GaugeFunc("rslpa_stream_snapshot_shards",
		"Shards covering the current snapshot's vertex ID space.",
		stat(func(st Stats) float64 { return float64(st.SnapshotShards) }))
	r.GaugeFunc("rslpa_stream_start_time_seconds",
		"Unix time the service started.",
		func() float64 { return float64(s.start.UnixNano()) / float64(time.Second) })
	r.GaugeFunc("rslpa_go_heap_live_bytes",
		"Heap bytes the last GC marked live (runtime/metrics /gc/heap/live:bytes; read without stopping the world).",
		func() float64 {
			sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
			metrics.Read(sample)
			return float64(sample[0].Value.Uint64())
		})

	r.CounterFunc("rslpa_stream_submitted_edits_total",
		"Edits accepted by Submit.",
		stat(func(st Stats) float64 { return float64(st.SubmittedEdits) }))
	r.CounterFunc("rslpa_stream_applied_edits_total",
		"Canonical edits that survived coalescing and reached Update.",
		stat(func(st Stats) float64 { return float64(st.AppliedEdits) }))
	r.CounterFunc("rslpa_stream_coalesced_edits_total",
		"Submitted edits absorbed by batch canonicalization.",
		stat(func(st Stats) float64 { return float64(st.CoalescedEdits) }))
	r.CounterFunc("rslpa_stream_batches_total",
		"Update batches applied.",
		stat(func(st Stats) float64 { return float64(st.Batches) }))
	r.CounterFunc("rslpa_stream_checkpoints_total",
		"Durable checkpoint files written.",
		stat(func(st Stats) float64 { return float64(st.Checkpoints) }))
	r.CounterFunc("rslpa_stream_queries_total",
		"Snapshot loads served.",
		stat(func(st Stats) float64 { return float64(st.Queries) }))
	r.CounterFunc("rslpa_stream_flush_errors_total",
		"Flushes that failed (detector update or checkpoint write).",
		stat(func(st Stats) float64 { return float64(st.FlushErrors) }))
	r.CounterFunc("rslpa_stream_shards_republished_total",
		"Snapshot shards recloned (rather than shared) across all publishes.",
		stat(func(st Stats) float64 { return float64(st.ShardsRepublished) }))
	r.CounterFunc("rslpa_stream_repicked_total",
		"Picks re-drawn or switched by correction propagation.",
		stat(func(st Stats) float64 { return float64(st.Repicked) }))
	r.CounterFunc("rslpa_stream_touched_total",
		"Label slots visited by correction propagation (the paper's eta).",
		stat(func(st Stats) float64 { return float64(st.Touched) }))
	r.CounterFunc("rslpa_stream_levels_skipped_total",
		"Idle correction levels collapsed to zero rounds by the sparse schedule.",
		stat(func(st Stats) float64 { return float64(st.LevelsSkipped) }))
	r.CounterFunc("rslpa_stream_rounds_run_total",
		"Correction rounds actually executed.",
		stat(func(st Stats) float64 { return float64(st.RoundsRun) }))

	// BSP engine wire traffic, present only when the detector runs on the
	// cluster engine (Workers > 1) and reports it.
	if s.engine != nil {
		r.CounterFunc("rslpa_engine_rounds_total",
			"BSP engine supersteps executed (cumulative, including initial propagation).",
			stat(func(st Stats) float64 { return float64(st.EngineRounds) }))
		r.CounterFunc("rslpa_engine_messages_total",
			"BSP engine messages exchanged.",
			stat(func(st Stats) float64 { return float64(st.EngineMessages) }))
		r.CounterFunc("rslpa_engine_wire_bytes_total",
			"BSP engine wire bytes moved.",
			stat(func(st Stats) float64 { return float64(st.EngineBytes) }))
	}
	return m
}
