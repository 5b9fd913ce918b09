// Package stream runs an incremental community detector as an always-on
// service: the shape the paper's motivating scenario (a social network
// whose graph changes continuously under live query traffic) actually
// needs, and the missing layer between the blocking Detector call-chain
// and a deployed system.
//
// Three roles meet in a Service:
//
//   - Producers call Submit from any number of goroutines. Edits flow
//     through a bounded queue; when it is full Submit blocks, which is the
//     backpressure signal.
//   - A single maintenance goroutine drains the queue, coalesces edits
//     into canonical batches (graph.Coalescer: orient, dedupe, cancel
//     insert+delete pairs) and applies them through the detector's
//     incremental Update. By default (Options.FlushInterval 0, group
//     commit) a batch closes as soon as the previous one is applied and
//     takes everything that queued meanwhile, up to Options.MaxBatch net
//     edits; with a positive FlushInterval it closes at MaxBatch or on a
//     ticker of that period. Because only this
//     goroutine ever touches the detector, any single-goroutine Detector
//     implementation works unchanged — sequential, in-process parallel,
//     or distributed.
//   - Readers call Snapshot (or the HTTP handler's GET endpoints) and are
//     served lock-free from an immutable, epoch-versioned snapshot that
//     the maintenance goroutine swaps in atomically after every applied
//     batch. Readers never block the writer, never see a partially
//     applied batch, and a held snapshot stays consistent forever. While
//     readers keep pace and batches leave it the time, the maintenance
//     goroutine extracts each epoch's communities before swapping it in,
//     so a read finds them computed.
//
// # Copy-on-write publication
//
// Snapshots are published per-shard copy-on-write rather than by cloning
// the world: the dense vertex ID space is cut into fixed shards of
// graph.ShardSize IDs, a Snapshot is an epoch plus an immutable slice of
// shard pointers, and publishing epoch N+1 reclones only the dirty
// shards — those covering the batch's effective-edit endpoints and every
// vertex whose label row changed (core.UpdateStats.Dirty, the dirty-shard
// rule) — while sharing every clean shard with epoch N. A recloned shard
// copies its adjacency but no label: it keeps the detector's own rows,
// which Detector.Freeze turns copy-on-write inside the detector. A
// publish therefore costs one slice header per vertex of a dirty shard
// instead of the O(n·T) label matrix; the last_publish_micros and
// shards_republished counters in Stats meter exactly that. Correctness
// is pinned by the epoch-hash-equivalence suite: every published COW
// snapshot hashes identical to a full clone at the same epoch.
//
// The service optionally checkpoints the detector every few batches
// through its Save method (atomic tmp+rename+fsync), so a restarted
// process can resume maintenance bit-identically via the library's
// LoadDetector path. Temp files orphaned by a crash mid-checkpoint are
// swept at startup.
//
// # Replication feed
//
// With Options.JournalDepth > 0 the service additionally keeps the last
// JournalDepth applied canonical batches (each stamped with the epoch it
// produced), and the HTTP handler serves them as GET /feed?from=<epoch>
// beside GET /checkpoint, a detector checkpoint encoded at the head on
// request. A read-only follower (internal/replica) bootstraps from the
// checkpoint and tails the feed, handing each of the writer's canonical
// batches to its own service's Apply, which never re-coalesces (a batch
// that is not canonical for the next epoch fails with ErrDiverged), so
// determinism makes the follower's snapshot at epoch E bit-identical to
// the writer's. A follower that falls behind the bounded journal horizon
// gets 410 Gone and re-bootstraps from a fresh checkpoint.
package stream

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rslpa/internal/core"
	"rslpa/internal/graph"
	"rslpa/internal/obs"
	"rslpa/internal/postprocess"
)

// Detector is the maintenance interface the service drives. The
// library's detectors satisfy it through thin adapters that forward to
// the engine (the root package's service adapter over *rslpa.Detector in
// every execution mode, and the follower's over core.State).
type Detector interface {
	// Update applies a batch of edge edits and incrementally repairs the
	// detection state. The returned UpdateStats.Dirty must cover every
	// vertex whose adjacency or label sequence changed — it drives the
	// copy-on-write snapshot publication (only the shards covering Dirty
	// vertices are recloned). A nil Dirty is treated as "unknown" and
	// forces a full-clone publish, which is always safe.
	Update(batch []graph.Edit) (core.UpdateStats, error)
	// Labels returns a vertex's label sequence (nil for absent vertices).
	// Snapshots keep the returned slice itself, not a copy.
	Labels(v uint32) []uint32
	// Freeze promises that no slice Labels has returned so far is written
	// again: a later Update that changes such a row writes a fresh copy.
	// Every snapshot calls it once its rows are captured.
	Freeze()
	// Graph returns the detector's current graph (read-only).
	Graph() *graph.Graph
	// Save checkpoints the detector state.
	Save(w io.Writer) error
}

// EngineStatsProvider is optionally implemented by detectors that run on
// the BSP cluster engine: EngineStats reports the engine's cumulative
// wire traffic (supersteps, messages, bytes — cluster.Stats). ok is false
// for sequential detectors, whose wire traffic is definitionally zero.
// When the service's detector implements it, the cumulative values are
// surfaced in Stats (engine_rounds / engine_messages / engine_bytes in
// /stats) and per-batch deltas are attached to the Update span of the
// pipeline trace.
type EngineStatsProvider interface {
	EngineStats() (rounds, messages, bytes int64, ok bool)
}

// Options configures a Service. The zero value selects the defaults.
type Options struct {
	// QueueCapacity bounds the ingest queue, in edits; Submit blocks while
	// it is full (backpressure). Default 4096.
	QueueCapacity int
	// MaxBatch flushes the pending batch once it holds this many net
	// edits. Default 512.
	MaxBatch int
	// FlushInterval selects when a partial batch closes. Zero (the
	// default; negative values mean zero) is group commit: a batch closes
	// as soon as the previous one has been applied, carrying every edit
	// that queued meanwhile (up to MaxBatch), so an edit waits for at most
	// one batch in flight instead of a timer. A positive interval flushes
	// partial batches on a fixed ticker of that period instead; a long one
	// (time.Hour) means "only on MaxBatch or Drain".
	//
	// CheckpointEvery counts batches, and group commit runs many more of
	// them under load, so a service with CheckpointPath set writes its
	// checkpoint file correspondingly more often; such a service should
	// set an interval.
	FlushInterval time.Duration
	// Extraction configures snapshot community extraction (thresholds,
	// metric); the zero value selects them automatically.
	Extraction postprocess.Config
	// CheckpointPath, when non-empty, makes the service checkpoint the
	// detector to this file — written atomically via a temporary file and
	// rename — every CheckpointEvery batches and once more on Close.
	CheckpointPath string
	// CheckpointEvery is the number of applied batches between on-disk
	// checkpoints (CheckpointPath). It counts batches, not edits or time;
	// see FlushInterval. Default 16.
	CheckpointEvery int
	// BaseEpoch is the epoch of the initial snapshot (default 0). A caller
	// whose detector resumed from a checkpoint passes the detector's own
	// batch counter here so the service's snapshot epochs equal the
	// detector's epochs globally — across restarts, and between a writer
	// and the followers that replay its feed.
	BaseEpoch uint64
	// JournalDepth, when positive, makes the service retain the last
	// JournalDepth applied canonical batches (with their epochs), served
	// as GET /feed, and serve GET /checkpoint, a detector checkpoint
	// encoded at the head on request, for follower replicas. Zero
	// disables journaling (the feed endpoints answer 404).
	JournalDepth int
	// EvolutionDepth, when positive, enables the temporal evolution tier:
	// after every published snapshot the service diffs its community set
	// against the previous epoch's (stable Jaccard matching with
	// deterministic tie-breaks and content-derived lineage IDs), retains
	// the last EvolutionDepth epochs of classified transition events and
	// covers (communities and rendered body, not snapshots), and serves them
	// as GET /events, GET /community/{id}/history and GET /communities?epoch=E.
	// Zero disables the tier (the evolution routes answer 404).
	EvolutionDepth int
	// EvolutionState, when non-nil, resumes the evolution tracker from a
	// serialized baseline (GET /evolution/state) captured at exactly
	// BaseEpoch — how a follower adopts its writer's lineage assignments.
	// When nil and CheckpointPath is set, the checkpoint's .evolution
	// sidecar is loaded instead (writer restart); a missing or mismatched
	// sidecar rebases lineages fresh.
	EvolutionState []byte
	// Obs, when non-nil, registers the service's metric families in the
	// registry (latency histograms on the batch path, read-through
	// counters over Stats) and serves it at GET /metrics. Nil disables
	// instrumentation entirely — the uninstrumented hot path is unchanged.
	Obs *obs.Registry
	// Trace, when non-nil, records one pipeline trace per flushed batch —
	// a span tree covering coalesce, Update, publish, journal and
	// checkpoint — into the ring, served at GET /debug/batches.
	Trace *obs.TraceRing
	// Logger, when non-nil, receives structured operational events
	// (startup, flush and checkpoint failures, shutdown). Nil discards.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.QueueCapacity <= 0 {
		o.QueueCapacity = 4096
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 512
	}
	if o.FlushInterval < 0 {
		o.FlushInterval = 0
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 16
	}
	return o
}

// ErrClosed is returned by Submit, Drain, Apply and the HTTP handler after the
// service has been closed.
var ErrClosed = errors.New("stream: service is closed")

// Stats is a point-in-time reading of the service's operational counters,
// the yardstick the ROADMAP uses for update-path optimizations.
type Stats struct {
	Epoch         uint64 `json:"epoch"`          // batches applied so far
	Vertices      int    `json:"vertices"`       // current snapshot's graph
	Edges         int    `json:"edges"`          //
	QueueDepth    int    `json:"queue_depth"`    // edits waiting in the ingest queue
	QueueCapacity int    `json:"queue_capacity"` //

	SubmittedEdits uint64 `json:"submitted_edits"` // accepted by Submit
	AppliedEdits   uint64 `json:"applied_edits"`   // survived coalescing, reached Update
	CoalescedEdits uint64 `json:"coalesced_edits"` // absorbed by canonicalization
	Batches        uint64 `json:"batches"`         // Update calls
	Checkpoints    uint64 `json:"checkpoints"`     // checkpoint files written
	Queries        uint64 `json:"queries"`         // Snapshot loads
	// FlushErrors counts flushes that failed (detector update or on-disk
	// checkpoint write) — including the ones on the group-commit, ticker
	// and MaxBatch paths, which have no caller to return an error to. A
	// nonzero count with a healthy LastError means an earlier transient
	// checkpoint failure; a growing count means flushes keep failing. A
	// failed GET /checkpoint encode is answered to its requester instead.
	FlushErrors uint64 `json:"flush_errors"`

	LastBatchEdits    int   `json:"last_batch_edits"`
	LastUpdateMicros  int64 `json:"last_update_micros"`
	TotalUpdateMicros int64 `json:"total_update_micros"`

	// Copy-on-write publication counters: how long the last snapshot
	// publish took, how many shards it recloned (versus sharing with the
	// previous epoch), the cumulative reclone count, and how many shards
	// cover the current snapshot — together the yardstick for the
	// publication path (a small batch should republish a handful of
	// shards, not SnapshotShards of them).
	LastPublishMicros     int64  `json:"last_publish_micros"`
	TotalPublishMicros    int64  `json:"total_publish_micros"`
	ShardsRepublished     uint64 `json:"shards_republished"`
	LastShardsRepublished int    `json:"last_shards_republished"`
	SnapshotShards        int    `json:"snapshot_shards"`

	// Cumulative detector work across all batches (core.UpdateStats).
	Inserted uint64 `json:"inserted"`
	Deleted  uint64 `json:"deleted"`
	Repicked uint64 `json:"repicked"`
	Touched  uint64 `json:"touched"`
	Changed  uint64 `json:"changed"`

	// Sparse correction-schedule counters (core.UpdateStats.LevelsSkipped /
	// RoundsRun): cumulative idle levels collapsed to zero rounds, the
	// correction rounds actually run, and the last batch's share of each —
	// together with last_update_micros, the yardstick for the Update-path
	// ingest rate.
	LevelsSkipped     uint64 `json:"levels_skipped"`
	RoundsRun         uint64 `json:"rounds_run"`
	LastLevelsSkipped int    `json:"last_levels_skipped"`
	LastRoundsRun     int    `json:"last_rounds_run"`

	// Temporal evolution diff latency (EvolutionDepth > 0): the wall time
	// the last batch spent matching the published snapshot's communities
	// against the previous epoch's (their extraction ran before the swap
	// and is timed by rslpa_stream_extract_seconds), and the cumulative
	// total — the yardstick for the "<10% of steady-state publish latency"
	// budget. Omitted as zero when the tier is off.
	LastEvolutionMicros  int64 `json:"last_evolution_micros,omitempty"`
	TotalEvolutionMicros int64 `json:"total_evolution_micros,omitempty"`

	// Cumulative BSP engine wire traffic (cluster.Stats, including the
	// initial propagation), present when the detector runs on the cluster
	// engine (Workers > 1) and implements EngineStatsProvider; omitted as
	// zero for sequential detectors.
	EngineRounds   int64 `json:"engine_rounds,omitempty"`
	EngineMessages int64 `json:"engine_messages,omitempty"`
	EngineBytes    int64 `json:"engine_bytes,omitempty"`

	// StartTime is when the service started; UptimeSeconds is how long
	// ago that was as of this reading.
	StartTime     time.Time `json:"start_time"`
	UptimeSeconds float64   `json:"uptime_seconds"`

	LastError string `json:"last_error,omitempty"`
}

// Service is a running detection service. Create one with New; always
// Close it.
type Service struct {
	det  Detector
	opts Options

	in   chan graph.Edit
	ctl  chan func()   // work run between batches (Drain, checkpoint capture)
	quit chan struct{} // closed by Close
	done chan struct{} // closed when the maintenance goroutine exits

	// Observability: met is nil when Options.Obs is unset (the individual
	// obs types are additionally nil-safe); trace is nil when tracing is
	// off; log always points at a logger (a discarding one by default);
	// engine is the detector's EngineStatsProvider view, nil when absent.
	met    *streamMetrics
	trace  *obs.TraceRing
	log    *slog.Logger
	start  time.Time
	engine EngineStatsProvider

	// Maintenance-goroutine-private batch bookkeeping: the pending batch,
	// when its first edit arrived, how much time coalescing it has cost,
	// the previous engine wire reading (for per-batch trace deltas), when
	// the previous flush returned (service start before the first), and
	// the batches applied since the last checkpoint file.
	co           *graph.Coalescer
	pendSince    time.Time
	pendCoalesce time.Duration
	prevEng      [3]int64
	idleSince    time.Time
	sinceCkpt    int

	closeOnce sync.Once
	closeErr  error

	snap atomic.Pointer[Snapshot]

	// Hot-path counters, touched by producer/reader goroutines.
	submitted atomic.Uint64
	queries   atomic.Uint64
	coalesced atomic.Uint64

	// sendMu makes Submit-versus-Close deterministic: Submit enqueues
	// under the read lock, Close flips closed under the write lock before
	// the maintenance goroutine's final drain — so an edit a nil-returning
	// Submit accepted is always applied, never stranded in the queue.
	sendMu sync.RWMutex
	closed bool

	// Remaining counters are written only by the maintenance goroutine,
	// under mu so Stats can read a consistent set.
	mu      sync.Mutex
	st      Stats
	lastErr error // detector failure (latching)
	ckptErr error // most recent checkpoint failure (cleared by success)
	failed  bool  // a detector Update failed; the service stops applying

	// Replication journal (JournalDepth > 0): the last JournalDepth applied
	// canonical batches and the last bootstrap image, written only by the
	// maintenance goroutine and read by the feed/checkpoint HTTP handlers.
	jmu          sync.RWMutex
	journal      []feedBatch
	journalEpoch uint64 // epoch of the newest journaled batch (BaseEpoch when empty)
	boot         bootImage

	// Temporal evolution tier (EvolutionDepth > 0); nil when disabled.
	evo *evoTier
}

// trimFront drops the oldest entries of a bounded window down to depth by
// copying down and zeroing the vacated tail. Reslicing the front off
// instead would keep every dropped entry reachable through the backing
// array until append's next reallocation.
func trimFront[T any](w []T, depth int) []T {
	over := len(w) - depth
	if over <= 0 {
		return w
	}
	n := copy(w, w[over:])
	clear(w[n:])
	return w[:n]
}

// feedBatch is one journaled canonical batch: the edits that advanced the
// detector from epoch-1 to epoch. The edits slice is the coalescer's own
// freshly allocated flush output and is never mutated after journaling.
type feedBatch struct {
	epoch uint64
	edits []graph.Edit
}

// bootImage is what a follower bootstraps from: the detector checkpoint
// (GET /checkpoint) and the evolution baseline (GET /evolution/state, nil
// without a live evolution tier), both encoded at epoch. flush drops data
// once a newer epoch is published; evo is kept until the next capture.
type bootImage struct {
	epoch     uint64
	data, evo []byte
}

// New starts a service over det. The detector must not be used by the
// caller while the service is running — the service owns its mutation and
// its reads (queries go through snapshots instead).
func New(det Detector, opts Options) (*Service, error) {
	if det == nil {
		return nil, fmt.Errorf("stream: nil detector")
	}
	opts = opts.withDefaults()
	s := &Service{
		det:   det,
		opts:  opts,
		in:    make(chan graph.Edit, opts.QueueCapacity),
		ctl:   make(chan func()),
		co:    graph.NewCoalescer(det.Graph()),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
		trace: opts.Trace,
		log:   opts.Logger,
		start: time.Now(),
	}
	s.idleSince = s.start
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	if p, ok := det.(EngineStatsProvider); ok {
		if r, m, by, on := p.EngineStats(); on {
			s.engine = p
			// Baseline for per-batch deltas; the cumulative totals in
			// Stats still include what the engine sent before New.
			s.prevEng = [3]int64{r, m, by}
		}
	}
	s.met = newStreamMetrics(opts.Obs, s)
	if opts.CheckpointPath != "" {
		// A crash between CreateTemp and Rename in writeCheckpoint leaves
		// a <base>.tmp* orphan behind; sweep them before we start writing
		// our own.
		sweepCheckpointTemps(opts.CheckpointPath)
	}
	// Epoch BaseEpoch (default 0): the detector's state as handed in, so
	// queries are served from the first instant. Snapshots share one
	// extraction state for the service's lifetime: the scratch pool and the
	// edge-weight table each epoch's extraction hands to the next.
	sn0 := newSnapshot(opts.BaseEpoch, det, opts.Extraction, core.UpdateStats{})
	sn0.ext = newExtraction(opts.Obs)
	s.snap.Store(sn0)
	s.st.Epoch = sn0.Epoch()
	s.st.Vertices = sn0.NumVertices()
	s.st.Edges = sn0.NumEdges()
	s.st.SnapshotShards = sn0.NumShards()
	if opts.EvolutionDepth > 0 {
		if err := s.initEvolution(sn0); err != nil {
			return nil, err
		}
	}
	s.journalEpoch = opts.BaseEpoch
	if s.engine != nil {
		// Seed the cumulative engine counters so /stats shows the engine's
		// traffic before the first batch lands.
		s.st.EngineRounds = s.prevEng[0]
		s.st.EngineMessages = s.prevEng[1]
		s.st.EngineBytes = s.prevEng[2]
	}
	s.log.Info("stream: service started",
		"epoch", sn0.Epoch(),
		"vertices", sn0.NumVertices(),
		"edges", sn0.NumEdges(),
		"queue_capacity", opts.QueueCapacity,
		"max_batch", opts.MaxBatch,
		"flush_interval", opts.FlushInterval,
		"checkpoint_path", opts.CheckpointPath,
		"journal_depth", opts.JournalDepth)
	go s.loop()
	return s, nil
}

// sweepCheckpointTemps removes stale temporary checkpoint files (the
// <base>.tmp* pattern writeCheckpoint hands os.CreateTemp) left in the
// checkpoint directory by an earlier crash mid-write. Best effort: a
// sweep failure only means the orphan survives until the next start.
func sweepCheckpointTemps(path string) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), base+".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// Submit enqueues edits for application. It blocks while the ingest queue
// is full (backpressure) and returns ErrClosed — wrapped with how many of
// the edits were accepted — once the service is closed. After a detector
// failure the service latches: Submit still accepts, but batches are no
// longer applied and Drain reports the failure.
func (s *Service) Submit(edits ...graph.Edit) error {
	for i, e := range edits {
		s.sendMu.RLock()
		if s.closed {
			s.sendMu.RUnlock()
			return fmt.Errorf("%w (%d of %d edits accepted)", ErrClosed, i, len(edits))
		}
		// The send may block on a full queue (backpressure). Holding the
		// read lock here is safe: Close cannot take the write lock — and
		// therefore cannot stop the maintenance loop that is draining
		// this queue — until the send completes.
		s.in <- e
		s.submitted.Add(1)
		s.sendMu.RUnlock()
	}
	return nil
}

// Snapshot returns the current immutable snapshot. The caller may hold it
// for any length of time; it never changes and never blocks maintenance.
func (s *Service) Snapshot() *Snapshot {
	s.queries.Add(1)
	return s.snap.Load()
}

// Drain flushes every edit enqueued before the call and returns once the
// resulting batch has been applied and published (read-your-writes for a
// producer that has stopped submitting). It returns the flush error, or
// ErrClosed if the service is closed before the drain completes.
func (s *Service) Drain() error {
	var err error
	if !s.between(func() { err = s.drainQueue() }) {
		return s.drainErr()
	}
	return err
}

// ErrDiverged wraps every Apply rejection: the entry is not the canonical
// batch for the service's next epoch.
var ErrDiverged = errors.New("stream: replay diverged")

// Apply applies one journaled batch at its stated epoch through flush's
// apply, on the maintenance goroutine. An entry not for epoch head+1,
// empty, or not canonical against the graph fails with ErrDiverged and
// changes nothing. A replaying service takes no Submit.
func (s *Service) Apply(entry FeedEntry) error {
	batch, err := entry.GraphEdits()
	if err != nil {
		return err
	}
	if !s.between(func() {
		head := s.snap.Load().Epoch()
		switch err = s.failureErr(); {
		case err != nil: // latched, as Drain reports
		case entry.Epoch != head+1:
			err = fmt.Errorf("%w: feed batch %d at epoch %d", ErrDiverged, entry.Epoch, head)
		case len(batch) == 0 || !slices.Equal(graph.Canonicalize(s.det.Graph(), batch), batch):
			err = fmt.Errorf("%w: feed batch %d is not a canonical batch against epoch %d", ErrDiverged, entry.Epoch, head)
		default:
			err = s.apply(batch, 0, 0)
		}
	}) {
		return s.drainErr()
	}
	return err
}

// between hands fn to the maintenance goroutine, which runs it between
// batches, and returns once fn has returned. It reports false without
// running fn when the maintenance goroutine has exited (Close).
func (s *Service) between(fn func()) bool {
	ran := make(chan struct{})
	select {
	case s.ctl <- func() { fn(); close(ran) }:
		<-ran // the loop runs what it received before anything else
		return true
	case <-s.done:
		return false
	}
}

func (s *Service) drainErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lastErr != nil {
		return s.lastErr
	}
	if s.ckptErr != nil {
		return s.ckptErr
	}
	return ErrClosed
}

// checkpointFailure returns the most recent checkpoint failure, if any
// (cleared by the next successful checkpoint).
func (s *Service) checkpointFailure() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ckptErr
}

// closedErr returns ErrClosed once the maintenance goroutine has exited.
func (s *Service) closedErr() error {
	select {
	case <-s.done:
		return ErrClosed
	default:
		return nil
	}
}

// failureErr returns the latched detector failure, if any.
func (s *Service) failureErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return s.lastErr
	}
	return nil
}

// Stats returns the service's operational counters. The maintenance-
// goroutine counters — Epoch included — are read in one critical
// section, so a reading is never torn: Epoch always equals Batches, even
// while a flush is publishing (the flush records the new epoch and bumps
// the batch counters under the same lock).
func (s *Service) Stats() Stats {
	s.mu.Lock()
	st := s.st
	lastErr := s.lastErr
	if lastErr == nil {
		lastErr = s.ckptErr
	}
	s.mu.Unlock()
	st.SubmittedEdits = s.submitted.Load()
	st.CoalescedEdits = s.coalesced.Load()
	st.Queries = s.queries.Load()
	st.QueueDepth = len(s.in)
	st.QueueCapacity = s.opts.QueueCapacity
	st.StartTime = s.start
	st.UptimeSeconds = time.Since(s.start).Seconds()
	if lastErr != nil {
		st.LastError = lastErr.Error()
	}
	return st
}

// Close drains the queue, applies the final batch, writes a final
// checkpoint (when configured), and stops the maintenance goroutine. It is
// idempotent and safe to call concurrently; every call returns the same
// error. Queries keep working after Close — the last snapshot remains
// served — but Submit and Drain fail.
func (s *Service) Close() error {
	s.closeOnce.Do(func() {
		// Flip closed before signalling the loop: once the write lock is
		// held, every in-flight Submit has finished its enqueue and every
		// later Submit fails fast, so the loop's final drain sees the
		// complete accepted stream.
		s.sendMu.Lock()
		s.closed = true
		s.sendMu.Unlock()
		close(s.quit)
		<-s.done
		s.mu.Lock()
		s.closeErr = s.lastErr
		if s.closeErr == nil {
			s.closeErr = s.ckptErr
		}
		batches := s.st.Batches
		epoch := s.st.Epoch
		s.mu.Unlock()
		s.log.Info("stream: service closed",
			"epoch", epoch, "batches", batches, "error", s.closeErr)
	})
	return s.closeErr
}

// loop is the maintenance goroutine: the only code that touches the
// detector after New returns.
func (s *Service) loop() {
	defer close(s.done)
	// Group commit (FlushInterval 0) leaves tick nil, so its case never
	// fires.
	var tick <-chan time.Time
	if s.opts.FlushInterval > 0 {
		t := time.NewTicker(s.opts.FlushInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case e := <-s.in:
			s.ingest(e)
			if tick == nil {
				// Group commit: this edit and everything queued behind it
				// close a batch now; whatever queues during its flush
				// becomes the next one.
				s.drainQueue()
			} else if s.co.Len() >= s.opts.MaxBatch {
				s.flush()
			}
		case <-tick:
			// A flush that outlasted FlushInterval leaves a tick pending
			// beside whatever queued up meanwhile, and select picks between
			// ready cases at random: take the queue first, so the tick's
			// batch carries everything already submitted.
			s.drainQueue()
		case fn := <-s.ctl:
			fn()
		case <-s.quit:
			s.drainQueue()
			if s.opts.CheckpointPath != "" && s.failureErr() == nil {
				s.writeCheckpoint()
			}
			return
		}
	}
}

// ingest folds one edit into the pending batch, metering how many
// submitted edits canonicalization absorbs (a cancellation absorbs both
// the pending edit and this one). When instrumented it also stamps the
// pending batch's first-arrival time (for the queue-wait histogram) and
// accumulates the coalescing cost (for the trace's coalesce span).
func (s *Service) ingest(e graph.Edit) {
	timed := s.met != nil || s.trace != nil
	var t0 time.Time
	if timed {
		t0 = time.Now()
		if s.pendSince.IsZero() {
			s.pendSince = t0
		}
	}
	r := s.co.Add(e) // +1 net change, 0 absorbed, -1 cancelled a pending edit
	if timed {
		s.pendCoalesce += time.Since(t0)
	}
	if r < 1 {
		s.coalesced.Add(uint64(1 - r))
	}
}

// drainQueue moves everything currently buffered in the ingest queue into
// the coalescer without blocking, applies it, and returns the first flush
// error it hits. MaxBatch stays an invariant here too — a drain of a deep
// queue applies several MaxBatch-sized batches rather than one giant one,
// so batch boundaries do not depend on whether edits were ingested one by
// one or found buffered.
func (s *Service) drainQueue() error {
	var first error
	for {
		select {
		case e := <-s.in:
			s.ingest(e)
			if s.co.Len() >= s.opts.MaxBatch {
				first = cmp.Or(first, s.flush())
			}
		default:
			return cmp.Or(first, s.flush())
		}
	}
}

// flush takes the coalescer's pending canonical batch and applies it (if
// any). After a detector failure the service latches: the
// stale-but-consistent snapshot keeps serving, and further flushes are
// dropped.
func (s *Service) flush() error {
	if err := s.failureErr(); err != nil {
		s.co.Flush() // discard: a latched detector will never apply them
		return err
	}
	batch := s.co.Flush()
	// The pending-batch stamps belong to the batch being flushed; reset
	// them before the next one starts accumulating (also when the batch
	// coalesced away to nothing).
	pendWait, coalesceDur := time.Duration(0), s.pendCoalesce
	if !s.pendSince.IsZero() {
		pendWait = time.Since(s.pendSince)
	}
	s.pendSince, s.pendCoalesce = time.Time{}, 0
	if len(batch) == 0 {
		return nil
	}
	return s.apply(batch, pendWait, coalesceDur)
}

// apply runs one canonical batch through the detector and publishes the
// next snapshot; pendWait and coalesceDur are zero for a replayed batch.
func (s *Service) apply(batch []graph.Edit, pendWait, coalesceDur time.Duration) error {
	flushStart := time.Now()
	t0 := flushStart
	stats, err := s.det.Update(batch)
	if err != nil {
		s.mu.Lock()
		s.failed = true
		s.lastErr = fmt.Errorf("stream: detector update failed: %w", err)
		err = s.lastErr
		s.st.FlushErrors++
		s.mu.Unlock()
		s.log.Error("stream: detector update failed; service latched",
			"error", err, "batch_edits", len(batch))
		return err
	}
	dur := time.Since(t0)

	// Per-batch engine wire delta (distributed detectors only), for the
	// Update trace span; cumulative totals go to Stats below.
	var engCum, engDelta [3]int64
	if s.engine != nil {
		if r, m, by, ok := s.engine.EngineStats(); ok {
			engCum = [3]int64{r, m, by}
			engDelta = [3]int64{r - s.prevEng[0], m - s.prevEng[1], by - s.prevEng[2]}
			s.prevEng = engCum
		}
	}

	// Publish copy-on-write: reclone only the shards the batch dirtied,
	// share the rest with the previous snapshot. A detector that reports
	// no dirty set (nil Dirty on a batch that did work) gets the safe
	// full clone.
	prev := s.snap.Load()
	p0 := time.Now()
	var next *Snapshot
	if stats.Dirty == nil && stats.Inserted+stats.Deleted+stats.Repicked+stats.Changed > 0 {
		next = newSnapshot(prev.Epoch()+1, s.det, s.opts.Extraction, stats)
		next.ext = prev.ext
	} else {
		next = nextSnapshot(prev, s.det, stats.Dirty, stats)
	}
	pub := time.Since(p0)

	// Extract before the swap when it pays (extractBeforeSwap): until the
	// swap readers are served the previous epoch, already extracted, so
	// none waits on the head's extraction, and the weight table advances
	// one epoch at a time.
	var extDur time.Duration
	if s.extractBeforeSwap(next.ext, flushStart.Sub(s.idleSince)) {
		e0 := time.Now()
		next.extract()
		extDur = time.Since(e0)
	}
	s.snap.Store(next)

	// Temporal evolution: diff the just-published snapshot's communities
	// against the previous epoch's, synchronously, so the event journal
	// stays epoch-contiguous and every checkpoint capture sees the tracker
	// at exactly the detector's epoch.
	var evoDur time.Duration
	if s.evo != nil {
		evoDur = s.advanceEvolution(next)
	}

	s.mu.Lock()
	// The epoch is recorded under the same critical section as the batch
	// counters so Stats never reports a torn Epoch/Batches pair.
	s.st.Epoch = next.Epoch()
	s.st.Vertices = next.NumVertices()
	s.st.Edges = next.NumEdges()
	s.st.SnapshotShards = next.NumShards()
	s.st.LastPublishMicros = pub.Microseconds()
	s.st.TotalPublishMicros += pub.Microseconds()
	s.st.ShardsRepublished += uint64(next.ShardsRepublished())
	s.st.LastShardsRepublished = next.ShardsRepublished()
	s.st.AppliedEdits += uint64(len(batch))
	s.st.Batches++
	s.st.LastBatchEdits = len(batch)
	s.st.LastUpdateMicros = dur.Microseconds()
	s.st.TotalUpdateMicros += dur.Microseconds()
	s.st.Inserted += uint64(stats.Inserted)
	s.st.Deleted += uint64(stats.Deleted)
	s.st.Repicked += uint64(stats.Repicked)
	s.st.Touched += uint64(stats.Touched)
	s.st.Changed += uint64(stats.Changed)
	s.st.LevelsSkipped += uint64(stats.LevelsSkipped)
	s.st.RoundsRun += uint64(stats.RoundsRun)
	s.st.LastLevelsSkipped = stats.LevelsSkipped
	s.st.LastRoundsRun = stats.RoundsRun
	if s.evo != nil {
		s.st.LastEvolutionMicros = evoDur.Microseconds()
		s.st.TotalEvolutionMicros += evoDur.Microseconds()
	}
	if s.engine != nil {
		s.st.EngineRounds = engCum[0]
		s.st.EngineMessages = engCum[1]
		s.st.EngineBytes = engCum[2]
	}
	s.mu.Unlock()

	var journalDur time.Duration
	if s.opts.JournalDepth > 0 {
		j0 := time.Now()
		// The batch is a fresh slice (the coalescer's or Apply's), so the
		// journal can retain it without copying. Trim to the horizon. The
		// bootstrap checkpoint is served at the head only, so its bytes go
		// now; a response in flight keeps its own slice.
		s.jmu.Lock()
		s.journal = trimFront(append(s.journal, feedBatch{epoch: next.Epoch(), edits: batch}), s.opts.JournalDepth)
		s.journalEpoch = next.Epoch()
		s.boot.data = nil
		s.jmu.Unlock()
		journalDur = time.Since(j0)
	}

	var ckptDur time.Duration
	var flushErr error
	if s.opts.CheckpointPath != "" {
		if s.sinceCkpt++; s.sinceCkpt >= s.opts.CheckpointEvery {
			s.sinceCkpt = 0
			c0 := time.Now()
			err := s.writeCheckpoint()
			ckptDur = time.Since(c0)
			if err != nil {
				s.mu.Lock()
				s.st.FlushErrors++
				s.mu.Unlock()
				flushErr = err
			}
		}
	}

	if s.met != nil {
		s.met.queueWaitSeconds.Observe(pendWait.Seconds())
		s.met.updateSeconds.Observe(dur.Seconds())
		s.met.publishSeconds.Observe(pub.Seconds())
		s.met.batchEdits.Observe(float64(len(batch)))
		if ckptDur > 0 {
			s.met.checkpointSeconds.Observe(ckptDur.Seconds())
		}
	}
	if s.trace != nil {
		s.trace.Record(s.batchTrace(next, flushStart, len(batch), coalesceDur,
			dur, pub, extDur, journalDur, ckptDur, evoDur, stats, engDelta))
	}
	s.idleSince = time.Now()
	return flushErr
}

// extractBeforeSwap decides, at each publish, whether flush extracts the
// new epoch on the maintenance goroutine before swapping it in. A live
// evolution tier needs the cover for its diff anyway. Otherwise both must
// hold:
//   - readers keep pace (extraction.readersKeepPace): the work will be
//     used, and a reader that polls less often than the service publishes
//     leaves the epochs it skips lazy;
//   - the write path can afford it: the loop sat idle since its previous
//     flush for at least as long as the last extraction took. Batches that
//     arrive faster than that — an ingest flood, a follower catching up —
//     would each wait behind an extraction, so there readers extract on
//     their own goroutines, as on a service nobody reads.
func (s *Service) extractBeforeSwap(x *extraction, idle time.Duration) bool {
	paced := x.readersKeepPace() // every publish consumes the demand
	if s.evo != nil && s.evo.failure() == nil {
		return true
	}
	return paced && idle >= time.Duration(x.last.Load())
}

// batchTrace assembles the pipeline span tree of one flushed batch. The
// root's TotalMicros covers the coalescing the batch accumulated while
// pending plus the flush wall time; the spans are the individually timed
// stages, so they sum to the total up to the untimed residue (stats
// bookkeeping, snapshot pointer swap). extract is zero when the batch
// was published unextracted.
func (s *Service) batchTrace(next *Snapshot, flushStart time.Time, edits int,
	coalesce, update, publish, extract, journal, ckpt, evo time.Duration,
	stats core.UpdateStats, engDelta [3]int64) obs.BatchTrace {
	updAttrs := map[string]int64{
		"rounds_run":     int64(stats.RoundsRun),
		"levels_skipped": int64(stats.LevelsSkipped),
		"touched":        int64(stats.Touched),
		"dirty_vertices": int64(len(stats.Dirty)),
	}
	if s.engine != nil {
		updAttrs["engine_rounds"] = engDelta[0]
		updAttrs["engine_messages"] = engDelta[1]
		updAttrs["engine_wire_bytes"] = engDelta[2]
	}
	spans := []obs.Span{
		{Name: "coalesce", Micros: coalesce.Microseconds()},
		{Name: "update", Micros: update.Microseconds(), Attrs: updAttrs},
		{Name: "publish", Micros: publish.Microseconds(), Attrs: map[string]int64{
			"shards_republished": int64(next.ShardsRepublished()),
			"snapshot_shards":    int64(next.NumShards()),
		}},
	}
	if extract > 0 {
		// Extracted on this goroutine before the swap: no reader could
		// have reached next yet, so its work record is this batch's.
		spans = append(spans, obs.Span{Name: "extract", Micros: extract.Microseconds(), Attrs: map[string]int64{
			"edges":            int64(next.work.edges),
			"edges_reweighted": int64(next.work.reweighted),
		}})
	}
	if journal > 0 {
		spans = append(spans, obs.Span{Name: "journal", Micros: journal.Microseconds()})
	}
	if ckpt > 0 {
		spans = append(spans, obs.Span{Name: "checkpoint", Micros: ckpt.Microseconds()})
	}
	if evo > 0 {
		spans = append(spans, obs.Span{Name: "evolution", Micros: evo.Microseconds()})
	}
	return obs.BatchTrace{
		Epoch:       next.Epoch(),
		Start:       flushStart,
		Edits:       edits,
		TotalMicros: (coalesce + time.Since(flushStart)).Microseconds(),
		Spans:       spans,
	}
}

// writeFileAtomic writes path atomically AND durably: write fills a
// <base>.tmp* file in the same directory (so the rename never crosses
// filesystems), which is fsynced, renamed over path, and the directory is
// fsynced so the rename itself survives a crash. Without the first fsync
// a power loss after the rename can publish a truncated file — the rename
// only orders against the data if the data reached the disk first;
// without the second the old directory entry may come back, which is
// merely stale, never corrupt.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(dir)
}

// writeCheckpoint saves the detector to CheckpointPath (writeFileAtomic).
func (s *Service) writeCheckpoint() error {
	if err := writeFileAtomic(s.opts.CheckpointPath, s.det.Save); err != nil {
		return s.checkpointErr(err)
	}
	// Persist the evolution baseline beside the detector checkpoint (same
	// epoch: both are written by the maintenance goroutine after the
	// epoch's diff), so a restarted writer resumes lineage assignment.
	if s.evo != nil {
		if err := s.writeEvolutionSidecar(); err != nil {
			return s.checkpointErr(fmt.Errorf("evolution sidecar: %w", err))
		}
	}
	s.mu.Lock()
	s.st.Checkpoints++
	s.ckptErr = nil // a good checkpoint supersedes an earlier transient failure
	s.mu.Unlock()
	return nil
}

// syncDir fsyncs a directory, making a just-renamed entry durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// checkpointErr records a checkpoint failure without latching the service:
// detection state is still healthy, only durability suffered. The next
// successful checkpoint clears it.
func (s *Service) checkpointErr(err error) error {
	err = fmt.Errorf("stream: checkpoint: %w", err)
	s.mu.Lock()
	s.ckptErr = err
	s.mu.Unlock()
	s.log.Warn("stream: checkpoint failed (service still healthy)", "error", err)
	return err
}
