package rslpa

import (
	"log/slog"
	"net/http"
	"time"

	"rslpa/internal/graph"
	"rslpa/internal/obs"
	"rslpa/internal/postprocess"
	"rslpa/internal/stream"
)

// This file is the facade over internal/stream: a long-running detection
// service that ingests concurrent edit streams, coalesces them into
// canonical update batches, and serves snapshot-consistent community
// queries while maintenance runs.

// ServiceOptions configures a Service; the zero value selects defaults.
type ServiceOptions struct {
	// QueueCapacity bounds the ingest queue in edits; Submit blocks while
	// it is full (backpressure). Default 4096.
	QueueCapacity int
	// MaxBatch flushes the pending batch at this many net edits.
	// Default 512.
	MaxBatch int
	// FlushInterval selects when a partial batch closes. Zero (the
	// default; negative values mean zero) is group commit: a batch closes
	// as soon as the previous one has been applied, carrying every edit
	// that queued meanwhile (up to MaxBatch). A positive interval flushes
	// partial batches on a fixed ticker of that period instead. Because
	// CheckpointEvery counts batches, a service with CheckpointPath set
	// should use an interval: group commit would write its checkpoint file
	// once per CheckpointEvery of its many more, smaller batches.
	FlushInterval time.Duration
	// CheckpointPath, when set, checkpoints the detector to this file
	// (atomic tmp+rename) every CheckpointEvery batches and on Close; a
	// restarted process resumes via LoadDetector + NewService.
	CheckpointPath string
	// CheckpointEvery is the number of batches (not edits, not seconds)
	// between checkpoint files (CheckpointPath). Default 16.
	CheckpointEvery int
	// JournalDepth, when positive, retains the last JournalDepth applied
	// canonical batches and serves them over the HTTP handler as GET /feed,
	// beside GET /checkpoint, a detector checkpoint encoded at the head on
	// request, so read-only follower replicas (internal/replica,
	// `rslpa serve -follow`) can bootstrap and tail this writer. Zero
	// disables the feed.
	JournalDepth int
	// EvolutionDepth, when positive, tracks how communities evolve across
	// epochs: after each publish the new snapshot's community set is
	// diffed against the previous one (stable Jaccard matching), the
	// changes are classified (birth, death, merge, split, grow, shrink,
	// continue) under stable lineage IDs, and the last EvolutionDepth
	// epochs of events and covers (communities, not snapshots) are served
	// over the HTTP handler as GET /events, GET /community/{id}/history and
	// GET /communities?epoch=E. Zero disables evolution tracking.
	EvolutionDepth int
	// Logger, when non-nil, receives structured operational events
	// (startup, flush and checkpoint failures, shutdown). Nil discards.
	Logger *slog.Logger
}

// ServiceStats is a point-in-time reading of a Service's operational
// counters (queue depth, batch and latency counters, cumulative update
// work).
type ServiceStats = stream.Stats

// Service runs a Detector as an always-on streaming detection service:
// any number of goroutines Submit edge edits (bounded queue, blocking
// backpressure), a single maintenance goroutine coalesces them into
// canonical batches and applies them through the detector's incremental
// Update, and queries are answered lock-free from an immutable
// epoch-versioned Snapshot swapped in after every batch — readers never
// block maintenance and always see a complete, single-epoch state.
//
// The service owns the detector: do not call its methods while the
// service runs, and Close the service (which also closes the detector)
// when done. Snapshots remain valid and queryable after Close.
type Service struct {
	inner *stream.Service
	det   *Detector

	// Observability plumbing (internal/obs types stay internal; they are
	// reachable through Handler's /metrics and /debug/batches routes and
	// through DebugHandler).
	reg  *obs.Registry
	ring *obs.TraceRing
}

// canonDetector adapts a Detector to stream.Detector. It hands the
// service's batches straight to the underlying engine: the coalescer
// already emits canonical batches, so routing them through Detector.Update
// would only re-canonicalize a fixed point. Freeze reaches the engine the
// same way, so the service's snapshots share its label rows.
type canonDetector struct{ *Detector }

func (d canonDetector) Update(batch []Edit) (UpdateStats, error) {
	return d.applyCanonical(batch)
}

func (d canonDetector) Freeze() {
	if d.seq != nil {
		d.seq.Freeze()
		return
	}
	d.dst.Freeze()
}

// NewService starts a Service over det. The extraction configuration
// (thresholds, metric) is taken from the detector's Config, so snapshot
// queries return exactly what det.Communities would.
//
// Every service is born instrumented: a metrics registry (Prometheus
// text exposition at GET /metrics) and a per-batch pipeline trace ring
// (GET /debug/batches) are created internally and wired through the
// maintenance loop. The hot-path cost is a handful of atomic adds per
// batch — see BenchmarkObsOverhead in internal/stream.
func NewService(det *Detector, opts ServiceOptions) (*Service, error) {
	reg := obs.NewRegistry()
	ring := obs.NewTraceRing(0, 0)
	inner, err := stream.New(canonDetector{det}, stream.Options{
		QueueCapacity: opts.QueueCapacity,
		MaxBatch:      opts.MaxBatch,
		FlushInterval: opts.FlushInterval,
		Extraction: postprocess.Config{
			Tau1:   det.cfg.Tau1,
			Tau2:   det.cfg.Tau2,
			Metric: det.cfg.Metric,
		},
		CheckpointPath:  opts.CheckpointPath,
		CheckpointEvery: opts.CheckpointEvery,
		JournalDepth:    opts.JournalDepth,
		EvolutionDepth:  opts.EvolutionDepth,
		Obs:             reg,
		Trace:           ring,
		Logger:          opts.Logger,
		// Align service epochs with the detector's batch counter: a
		// detector resumed from a checkpoint starts publishing at its
		// restored epoch, so epochs are globally comparable across writer
		// restarts and between a writer and its followers.
		BaseEpoch: det.Epoch(),
	})
	if err != nil {
		return nil, err
	}
	return &Service{inner: inner, det: det, reg: reg, ring: ring}, nil
}

// Submit enqueues edge edits for application. It blocks while the ingest
// queue is full and fails once the service is closed.
func (s *Service) Submit(edits ...Edit) error { return s.inner.Submit(edits...) }

// Snapshot returns the current immutable snapshot. Holding a snapshot
// never blocks maintenance; it stays consistent forever.
func (s *Service) Snapshot() Snapshot { return Snapshot{sn: s.inner.Snapshot()} }

// Communities extracts the current snapshot's communities and reports the
// epoch it was taken at.
func (s *Service) Communities() (*Result, uint64, error) {
	sn := s.Snapshot()
	res, err := sn.Communities()
	return res, sn.Epoch(), err
}

// Drain flushes every edit enqueued before the call and returns once the
// resulting batch is applied and published — read-your-writes for a
// producer that has stopped submitting.
func (s *Service) Drain() error { return s.inner.Drain() }

// Stats returns the service's operational counters.
func (s *Service) Stats() ServiceStats { return s.inner.Stats() }

// Handler returns the HTTP+JSON front end: POST /edits, GET /communities,
// GET /vertex/{v}, GET /stats, GET /healthz, GET /readyz, GET /feed and
// GET /checkpoint (JournalDepth > 0), GET /events, GET
// /community/{id}/history and GET /evolution/state (EvolutionDepth > 0),
// GET /metrics (Prometheus text exposition), GET /debug/batches
// (per-batch pipeline traces) and GET /version. See docs/API.md for the
// full reference.
func (s *Service) Handler() http.Handler { return s.inner.Handler() }

// DebugHandler returns the debug server intended for a separate, private
// listener (`rslpa serve -debug-addr`): the net/http/pprof profile
// endpoints under /debug/pprof/, plus /metrics, /debug/batches and
// /version — so profiling and scraping never contend with (or get
// exposed alongside) the public API.
func (s *Service) DebugHandler() http.Handler { return obs.DebugMux(s.reg, s.ring) }

// Close drains the queue, applies the final batch, writes a final
// checkpoint when configured, stops maintenance, and closes the detector.
// It is idempotent and safe to call concurrently. Queries against held or
// freshly loaded snapshots keep working after Close.
func (s *Service) Close() error {
	err := s.inner.Close()
	if cerr := s.det.Close(); err == nil {
		err = cerr
	}
	return err
}

// Snapshot is an immutable, epoch-versioned view of the detection state,
// frozen atomically between update batches. All methods are safe for
// concurrent use; results are memoized per snapshot.
type Snapshot struct {
	sn *stream.Snapshot
}

// Epoch returns the number of update batches applied before this snapshot
// was taken (0 = the state the service started from).
func (s Snapshot) Epoch() uint64 { return s.sn.Epoch() }

// NumVertices reports the snapshot graph's vertex count.
func (s Snapshot) NumVertices() int { return s.sn.NumVertices() }

// NumEdges reports the snapshot graph's edge count.
func (s Snapshot) NumEdges() int { return s.sn.NumEdges() }

// NumShards reports how many fixed-size shards cover the snapshot's
// vertex ID space (snapshots are published copy-on-write, one shard at
// a time; see internal/stream).
func (s Snapshot) NumShards() int { return s.sn.NumShards() }

// ShardsRepublished reports how many shards were cloned (rather than
// shared with the previous epoch) to publish this snapshot.
func (s Snapshot) ShardsRepublished() int { return s.sn.ShardsRepublished() }

// HasVertex reports whether v is present in the snapshot.
func (s Snapshot) HasVertex(v uint32) bool { return s.sn.HasVertex(v) }

// Degree returns v's degree in the snapshot (0 if absent).
func (s Snapshot) Degree(v uint32) int { return s.sn.Degree(v) }

// UpdateStats returns the detector work of the batch that produced this
// epoch.
func (s Snapshot) UpdateStats() UpdateStats { return s.sn.UpdateStats() }

// Labels returns v's frozen label sequence (length T+1), or nil for
// absent vertices. The slice is shared with the detector, which never
// writes it again; do not mutate it.
func (s Snapshot) Labels(v uint32) []uint32 { return s.sn.Labels(v) }

// Communities returns the snapshot's overlapping communities, extracted
// once per snapshot; later calls (and Membership) reuse it. Calling it
// tells the service someone reads: while reads keep pace with the
// publishes and batches leave it the time, it extracts each epoch before
// swapping it in and the call finds it computed.
func (s Snapshot) Communities() (*Result, error) {
	res, err := s.sn.Communities()
	if err != nil {
		return nil, err
	}
	return &Result{
		Communities: res.Cover,
		Tau1:        res.Tau1,
		Tau2:        res.Tau2,
		Strong:      res.Strong,
		Weak:        res.Weak,
		Entropy:     res.Entropy,
	}, nil
}

// Membership returns the indices (into Communities().Communities) of the
// communities containing v; nil for uncovered or absent vertices.
func (s Snapshot) Membership(v uint32) ([]int, error) { return s.sn.Membership(v) }

// Canonicalize reduces an edit batch to its canonical net effect against
// g: self-loops and no-op edits dropped, duplicate and mutually
// cancelling edits of one edge coalesced, survivors oriented U < V and
// sorted by edge key. Detector.Update and the Service apply exactly this
// reduction, so direct library callers and streamed producers share one
// semantics.
func Canonicalize(g *Graph, batch []Edit) []Edit { return graph.Canonicalize(g, batch) }
