// Package replica implements the read tier of the streaming service: a
// read-only Follower that bootstraps from a writer's checkpoint, tails its
// replication feed, and replays the writer's exact canonical batches
// through its own detector, publishing local copy-on-write snapshots for
// GET /communities, /vertex/{v} and /stats. Because the detector is
// deterministic — the same canonical batch applied at the same epoch
// produces the same label matrix bit for bit — a follower's snapshot at
// epoch E hash-matches the writer's epoch-E snapshot, so any number of
// followers scale query throughput horizontally while the single writer
// keeps ingesting.
//
// The protocol (served by internal/stream when Options.JournalDepth > 0):
//
//	GET /checkpoint         bootstrap: the writer's detector at epoch C
//	GET /feed?from=E&max=N  the canonical batches with epochs (E, E+N]
//
// The feed's journal horizon is bounded; a follower that falls behind it
// gets 410 Gone and re-bootstraps from the latest checkpoint. The tail
// loop retries with exponential backoff across writer outages and
// restarts, and re-bootstraps if the writer's epoch regressed below the
// follower's (a crash-restarted writer that lost batches past its last
// checkpoint — epoch numbers would otherwise be reused for different
// batches and the replica would silently diverge), and when the inner
// service's Apply rejects a feed batch as not the canonical batch for the
// next epoch (stream.ErrDiverged).
package replica

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rslpa/internal/core"
	"rslpa/internal/graph"
	"rslpa/internal/obs"
	"rslpa/internal/postprocess"
	"rslpa/internal/stream"
)

// Options configures a Follower. WriterURL is required; the zero value of
// everything else selects defaults.
type Options struct {
	// WriterURL is the base URL of the writer's HTTP handler, e.g.
	// "http://writer:8080".
	WriterURL string
	// PollInterval is how often the tail loop polls the feed while caught
	// up. Default 50ms.
	PollInterval time.Duration
	// RetryMin/RetryMax bound the exponential backoff after a failed feed
	// or bootstrap request, or a re-bootstrap. After a re-bootstrap only an
	// applied feed entry resets it. Defaults 100ms and 5s.
	RetryMin, RetryMax time.Duration
	// FeedMax is the number of batches requested per feed poll.
	// Default 64.
	FeedMax int
	// EvolutionDepth, when > 0, enables the evolution tier on the replayed
	// service (GET /events, /community/{id}/history, /communities?epoch=E).
	// The bootstrap additionally fetches the writer's GET /evolution/state
	// so lineage IDs — which are content-derived from the epoch a lineage
	// was born at — match the writer's, and the replayed diffs emit the
	// byte-identical event stream. Should match the writer's depth so the
	// two journals cover the same window.
	EvolutionDepth int
	// Extraction configures snapshot community extraction. It should match
	// the writer's so GET /communities answers agree (label matrices agree
	// regardless — determinism pins them to the feed, not to this).
	Extraction postprocess.Config
	// Client is the HTTP client used against the writer. Defaults to a
	// client with a 30s timeout.
	Client *http.Client
	// Obs, when non-nil, registers the follower's metric families (poll
	// latency, catch-up batches, re-bootstraps by reason, lag gauges) plus
	// the inner read service's rslpa_stream_* families in the registry,
	// served at GET /metrics. Registration survives re-bootstraps: each
	// replay generation re-registers get-or-create, keeping owned
	// histograms cumulative.
	Obs *obs.Registry
	// Trace, when non-nil, records the inner service's per-batch pipeline
	// traces (one per replayed feed batch), served at GET /debug/batches.
	Trace *obs.TraceRing
	// Logger, when non-nil, receives structured operational events
	// (bootstrap, re-bootstrap, replication error transitions). Nil
	// discards.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.PollInterval <= 0 {
		o.PollInterval = 50 * time.Millisecond
	}
	if o.RetryMin <= 0 {
		o.RetryMin = 100 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 5 * time.Second
	}
	if o.RetryMax < o.RetryMin {
		o.RetryMax = o.RetryMin
	}
	if o.FeedMax <= 0 {
		o.FeedMax = 64
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return o
}

// Stats is a point-in-time reading of a follower's counters: the inner
// read service's counters plus the replication-lag gauges.
type Stats struct {
	stream.Stats
	// FollowerEpoch is the epoch of the currently published snapshot.
	FollowerEpoch uint64 `json:"follower_epoch"`
	// WriterEpoch is the writer's epoch as of the last successful feed
	// poll (0 until the first poll completes).
	WriterEpoch uint64 `json:"writer_epoch"`
	// LagBatches is WriterEpoch − FollowerEpoch, clamped at 0: how many
	// applied writer batches this follower has not replayed yet.
	LagBatches uint64 `json:"lag_batches"`
	// CatchupTotal counts every batch replayed from the feed since the
	// follower started (across re-bootstraps).
	CatchupTotal uint64 `json:"catchup_total"`
	// Rebootstraps counts checkpoint re-bootstraps after the initial one
	// (journal horizon overruns, writer epoch regressions, replay
	// divergence).
	Rebootstraps uint64 `json:"rebootstraps"`
	// ReplicationError is the last tail-loop error, cleared by the next
	// successful poll.
	ReplicationError string `json:"replication_error,omitempty"`
}

// replayState is one bootstrapped generation of the follower: the inner
// read-only service over the replayed detector, and its HTTP front end
// (built once; serving delegates to it). A re-bootstrap swaps in a whole
// new generation; snapshots held from the old one stay valid.
type replayState struct {
	svc *stream.Service
	h   http.Handler
}

// Follower tails a writer and serves read queries from local snapshots.
// Create one with New; always Close it.
type Follower struct {
	opts Options

	cur  atomic.Pointer[replayState]
	quit chan struct{}
	done chan struct{}

	closeOnce sync.Once

	met *replicaMetrics
	log *slog.Logger

	writerEpoch  atomic.Uint64
	catchupTotal atomic.Uint64
	rebootstraps atomic.Uint64

	mu      sync.Mutex
	lastErr error
}

// seqDetector adapts core.State to stream.Detector for replay: the inner
// service's Apply runs each feed batch through it, one epoch per batch.
type seqDetector struct{ st *core.State }

func (d seqDetector) Update(b []graph.Edit) (core.UpdateStats, error) { return d.st.Update(b), nil }
func (d seqDetector) Labels(v uint32) []uint32                        { return d.st.Labels(v) }
func (d seqDetector) Freeze()                                         { d.st.Freeze() }
func (d seqDetector) Graph() *graph.Graph                             { return d.st.Graph() }
func (d seqDetector) Save(w io.Writer) error                          { return d.st.SaveCheckpoint(w) }

// New bootstraps a follower from the writer's current checkpoint and
// starts the tail loop. The initial bootstrap is synchronous — an
// unreachable or journal-less writer fails fast — while later outages are
// retried with backoff inside the loop.
func New(opts Options) (*Follower, error) {
	if opts.WriterURL == "" {
		return nil, fmt.Errorf("replica: WriterURL is required")
	}
	f := &Follower{
		opts: opts.withDefaults(),
		quit: make(chan struct{}),
		done: make(chan struct{}),
		log:  opts.Logger,
	}
	if f.log == nil {
		f.log = slog.New(slog.DiscardHandler)
	}
	rs, err := f.bootstrap()
	if err != nil {
		return nil, fmt.Errorf("replica: bootstrap: %w", err)
	}
	f.cur.Store(rs)
	// Register the follower's own families only after the first generation
	// is published: the gauge closures read f.cur at scrape time.
	f.met = newReplicaMetrics(f.opts.Obs, f)
	f.log.Info("replica: follower started",
		"writer_url", f.opts.WriterURL,
		"epoch", rs.svc.Snapshot().Epoch(),
		"poll_interval", f.opts.PollInterval)
	go f.loop()
	return f, nil
}

// bootstrap fetches the writer's checkpoint, which the writer encodes at
// its head on request (and, with EvolutionDepth set, its evolution state,
// captured with that checkpoint), and builds a fresh replay generation at
// its epoch. The two GETs are not atomic on the writer — another
// follower's checkpoint request can capture a newer epoch between them —
// so epoch-mismatch attempts are retried a few times before giving up.
func (f *Follower) bootstrap() (*replayState, error) {
	const attempts = 3
	var err error
	for i := 0; i < attempts; i++ {
		var rs *replayState
		var retry bool
		rs, retry, err = f.bootstrapOnce()
		if err == nil {
			return rs, nil
		}
		if !retry {
			return nil, err
		}
		f.log.Warn("replica: bootstrap raced another checkpoint capture, retrying", "error", err)
	}
	return nil, fmt.Errorf("after %d attempts: %w", attempts, err)
}

// bootstrapOnce performs one bootstrap attempt. retry reports that the
// failure is a benign race between the checkpoint and evolution-state
// fetches (the writer captured a newer epoch in between) and the caller
// should try again.
func (f *Follower) bootstrapOnce() (rs *replayState, retry bool, err error) {
	resp, err := f.opts.Client.Get(f.opts.WriterURL + "/checkpoint")
	if err != nil {
		return nil, false, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("GET /checkpoint: %s: %s", resp.Status, bodyText(body))
	}
	epoch, err := strconv.ParseUint(resp.Header.Get(stream.CheckpointEpochHeader), 10, 64)
	if err != nil {
		return nil, false, fmt.Errorf("checkpoint epoch header: %w", err)
	}
	var evoState []byte
	if f.opts.EvolutionDepth > 0 {
		evoState, retry, err = f.fetchEvolutionState(epoch)
		if err != nil {
			return nil, retry, err
		}
	}
	ck, err := core.ReadCheckpoint(bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	st, err := ck.BuildState()
	if err != nil {
		return nil, false, err
	}
	if st.Epoch() != epoch {
		return nil, false, fmt.Errorf("checkpoint epoch %d does not match header %d", st.Epoch(), epoch)
	}
	svc, err := stream.New(seqDetector{st}, stream.Options{
		Extraction:     f.opts.Extraction,
		BaseEpoch:      st.Epoch(),
		EvolutionDepth: f.opts.EvolutionDepth,
		EvolutionState: evoState,
		Obs:            f.opts.Obs,
		Trace:          f.opts.Trace,
		Logger:         f.opts.Logger,
	})
	if err != nil {
		return nil, false, err
	}
	return &replayState{svc: svc, h: svc.Handler()}, false, nil
}

// fetchEvolutionState fetches the writer's serialized evolution tracker
// so replayed lineage IDs match the writer's. A 404 is tolerated — the
// writer may not track evolution, or may not journal — and the local
// tracker rebases fresh (lineage IDs then diverge from the writer's;
// events and windows still work). retry reports an epoch mismatch with
// the checkpoint just fetched: a capture raced between the two GETs.
func (f *Follower) fetchEvolutionState(ckptEpoch uint64) (state []byte, retry bool, err error) {
	resp, err := f.opts.Client.Get(f.opts.WriterURL + "/evolution/state")
	if err != nil {
		return nil, false, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, false, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		f.log.Warn("replica: writer does not serve /evolution/state; starting fresh lineage tracking")
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("GET /evolution/state: %s: %s", resp.Status, bodyText(body))
	}
	epoch, err := strconv.ParseUint(resp.Header.Get(stream.CheckpointEpochHeader), 10, 64)
	if err != nil {
		return nil, false, fmt.Errorf("evolution state epoch header: %w", err)
	}
	if epoch != ckptEpoch {
		return nil, true, fmt.Errorf("evolution state at epoch %d, checkpoint at %d", epoch, ckptEpoch)
	}
	return body, false, nil
}

// bodyText renders an HTTP error body for diagnostics, bounded.
func bodyText(b []byte) string {
	const max = 256
	if len(b) > max {
		b = b[:max]
	}
	return string(bytes.TrimSpace(b))
}

// loop is the tail loop: poll the feed, replay, and keep lag low. Only
// this goroutine mutates f.cur after New.
func (f *Follower) loop() {
	defer close(f.done)
	defer func() {
		if rs := f.cur.Load(); rs != nil {
			rs.svc.Close()
		}
	}()
	backoff := f.opts.RetryMin
	// rebooted: a poll re-bootstrapped and no entry has applied since. A
	// clean poll (the writer had nothing new) does not reset the backoff.
	rebooted := false
	for {
		applied, reboots := f.catchupTotal.Load(), f.rebootstraps.Load()
		behind, err := f.poll()
		if f.catchupTotal.Load() != applied {
			backoff, rebooted = f.opts.RetryMin, false
		}
		if f.rebootstraps.Load() != reboots {
			rebooted = true
		}
		wait := f.opts.PollInterval
		switch {
		case err != nil:
			f.setErr(err)
			wait, backoff = backoff, min(backoff*2, f.opts.RetryMax)
		default:
			f.setErr(nil)
			if !rebooted {
				backoff = f.opts.RetryMin
			}
			if behind {
				// More batches are probably waiting: poll again immediately.
				wait = 0
			}
		}
		select {
		case <-f.quit:
			return
		case <-time.After(wait):
		}
	}
}

// poll performs one feed round-trip and replays whatever it returned.
// behind reports that a full page arrived (more batches likely pending).
func (f *Follower) poll() (behind bool, err error) {
	if f.met != nil {
		t0 := time.Now()
		defer func() { f.met.pollSeconds.Observe(time.Since(t0).Seconds()) }()
	}
	rs := f.cur.Load()
	from := rs.svc.Snapshot().Epoch()
	url := fmt.Sprintf("%s/feed?from=%d&max=%d", f.opts.WriterURL, from, f.opts.FeedMax)
	resp, err := f.opts.Client.Get(url)
	if err != nil {
		return false, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return false, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		// Behind the journal horizon: the writer has forgotten the batches
		// we need. Start over from its latest checkpoint.
		return true, f.rebootstrap(reasonHorizon, "behind journal horizon")
	default:
		return false, fmt.Errorf("GET /feed: %s: %s", resp.Status, bodyText(body))
	}
	var feed stream.FeedResponse
	if err := json.Unmarshal(body, &feed); err != nil {
		return false, fmt.Errorf("decode feed: %w", err)
	}
	f.writerEpoch.Store(feed.WriterEpoch)
	if feed.WriterEpoch < from {
		// The writer restarted from a checkpoint older than our replay
		// position: the epochs we already applied will be reassigned to
		// different batches. Rewind to the writer's truth.
		return true, f.rebootstrap(reasonEpochRegression,
			fmt.Sprintf("writer epoch regressed to %d (follower at %d)", feed.WriterEpoch, from))
	}
	if f.met != nil {
		f.met.catchupBatches.Observe(float64(len(feed.Batches)))
	}
	for _, entry := range feed.Batches {
		err := rs.svc.Apply(entry)
		if errors.Is(err, stream.ErrDiverged) {
			// Not the canonical batch for our next epoch: the replica can
			// no longer trust its state.
			return true, f.rebootstrap(reasonDivergence, err.Error())
		}
		if err != nil {
			return false, err
		}
		f.catchupTotal.Add(1)
	}
	return len(feed.Batches) >= f.opts.FeedMax, nil
}

// rebootstrap replaces the replay generation with a fresh one built from
// the writer's latest checkpoint. key is the stable reason label for the
// rebootstraps counter (reasonHorizon / reasonEpochRegression /
// reasonDivergence); detail is recorded as the replication error until
// the next healthy poll.
func (f *Follower) rebootstrap(key, detail string) error {
	f.log.Warn("replica: re-bootstrapping from writer checkpoint",
		"reason", key, "detail", detail)
	rs, err := f.bootstrap()
	if err != nil {
		return fmt.Errorf("re-bootstrap (%s): %w", detail, err)
	}
	// Count before publishing the new generation: an observer that sees
	// the post-bootstrap epoch must also see the counter tick.
	f.rebootstraps.Add(1)
	if f.met != nil {
		f.met.rebootstraps.With(key).Inc()
	}
	old := f.cur.Swap(rs)
	if old != nil {
		old.svc.Close()
	}
	f.log.Info("replica: re-bootstrapped",
		"reason", key, "epoch", rs.svc.Snapshot().Epoch())
	return fmt.Errorf("re-bootstrapped from checkpoint at epoch %d (%s)", rs.svc.Snapshot().Epoch(), detail)
}

// setErr records the tail loop's health and logs the transitions: one
// Warn when replication starts failing, one Info when it recovers — not
// one line per failed poll.
func (f *Follower) setErr(err error) {
	f.mu.Lock()
	prev := f.lastErr
	f.lastErr = err
	f.mu.Unlock()
	switch {
	case err != nil && prev == nil:
		f.log.Warn("replica: replication failing", "error", err)
	case err == nil && prev != nil:
		f.log.Info("replica: replication recovered",
			"epoch", f.cur.Load().svc.Snapshot().Epoch())
	}
}

func (f *Follower) replicationErr() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastErr
}

// Snapshot returns the current immutable snapshot of the replayed state.
// Held snapshots survive re-bootstraps and Close.
func (f *Follower) Snapshot() *stream.Snapshot { return f.cur.Load().svc.Snapshot() }

// Stats returns the follower's counters.
func (f *Follower) Stats() Stats {
	rs := f.cur.Load()
	st := Stats{
		Stats:        rs.svc.Stats(),
		WriterEpoch:  f.writerEpoch.Load(),
		CatchupTotal: f.catchupTotal.Load(),
		Rebootstraps: f.rebootstraps.Load(),
	}
	st.FollowerEpoch = st.Epoch
	if st.WriterEpoch > st.FollowerEpoch {
		st.LagBatches = st.WriterEpoch - st.FollowerEpoch
	}
	if err := f.replicationErr(); err != nil {
		st.ReplicationError = err.Error()
	}
	return st
}

// ErrClosed is returned by operations on a closed follower.
var ErrClosed = errors.New("replica: follower is closed")

// Close stops the tail loop and the inner read service. Queries against
// held snapshots keep working.
func (f *Follower) Close() error {
	f.closeOnce.Do(func() {
		close(f.quit)
		<-f.done
	})
	return nil
}
