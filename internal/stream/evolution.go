package stream

// Temporal evolution tier: with Options.EvolutionDepth > 0 the service
// diffs every published snapshot's community set against the previous
// epoch's through an evolution.Tracker (stable Jaccard matching,
// deterministic tie-breaks, content-derived lineage IDs) and serves the
// classified transition events over HTTP:
//
//	GET /events?from=E             the event journal after epoch E, with
//	                               /feed-style 410-behind-the-horizon
//	                               cursor semantics
//	GET /community/{id}/history    one lineage's retained life-cycle
//	GET /communities?epoch=E       a retained past epoch's cover
//	GET /evolution/state           the serialized matcher baseline at the
//	                               epoch of the last GET /checkpoint
//	                               capture, so a follower bootstraps with
//	                               the writer's exact lineage assignments
//
// The diff runs synchronously on the maintenance goroutine right after
// the snapshot swap: epochs stay contiguous (the tracker refuses gaps),
// the journal never reorders, and the snapshot it matches was already
// extracted before the swap, so the diff and every reader share that one
// memoized extraction (the window keeps its cover). Determinism end to end —
// canonical batches, bit-identical updates, order-stable extraction,
// exact-rational matching — is what lets a follower replaying the feed
// emit a byte-identical /events stream without any event replication.

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"rslpa/internal/evolution"
	"rslpa/internal/obs"
)

// evolutionSidecarSuffix names the durable sidecar next to the detector
// checkpoint that persists the tracker baseline across writer restarts.
const evolutionSidecarSuffix = ".evolution"

// eventsMaxDefault and eventsMaxLimit bound GET /events paging, in whole
// epochs per response (mirroring /feed's batch paging).
const (
	eventsMaxDefault = 64
	eventsMaxLimit   = 1024
)

// evoTier owns the tracker, the retained cover window, and the evolution
// metric instruments. The mutex covers tracker and window state: the
// maintenance goroutine writes under Lock, HTTP readers read under RLock.
type evoTier struct {
	depth int

	mu     sync.RWMutex
	tr     *evolution.Tracker
	covers []*cover // retained window, contiguous ascending epochs
	failed error    // latched diff/extraction failure; /events turns 503

	events      *obs.CounterVec
	diffSeconds *obs.Histogram
}

// initEvolution builds the tier at service start: restore the tracker
// baseline from an explicit state image (follower bootstrap — strict) or
// the checkpoint sidecar (writer restart — lenient), else rebase on the
// initial snapshot's communities. A restored baseline leaves sn0 lazy.
func (s *Service) initEvolution(sn0 *Snapshot) error {
	e := &evoTier{
		depth: s.opts.EvolutionDepth,
		tr:    evolution.New(evolution.Config{Depth: s.opts.EvolutionDepth}),
	}
	restored := false
	if st := s.opts.EvolutionState; st != nil {
		if err := e.tr.Restore(st); err != nil {
			return fmt.Errorf("stream: evolution state: %w", err)
		}
		if got := e.tr.Epoch(); got != s.opts.BaseEpoch {
			return fmt.Errorf("stream: evolution state is at epoch %d, detector at %d", got, s.opts.BaseEpoch)
		}
		restored = true
	} else if s.opts.CheckpointPath != "" {
		sidecar := s.opts.CheckpointPath + evolutionSidecarSuffix
		sweepCheckpointTemps(sidecar)
		if data, err := os.ReadFile(sidecar); err == nil {
			switch err := e.tr.Restore(data); {
			case err != nil:
				s.log.Warn("stream: evolution sidecar unreadable; rebasing lineages", "path", sidecar, "error", err)
			case e.tr.Epoch() != s.opts.BaseEpoch:
				s.log.Warn("stream: evolution sidecar epoch mismatch; rebasing lineages",
					"path", sidecar, "sidecar_epoch", e.tr.Epoch(), "detector_epoch", s.opts.BaseEpoch)
			default:
				restored = true
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			s.log.Warn("stream: evolution sidecar unreadable; rebasing lineages", "path", sidecar, "error", err)
		}
	}
	if !restored {
		res, err := sn0.communities()
		if err != nil {
			return fmt.Errorf("stream: evolution baseline extraction: %w", err)
		}
		e.tr.Rebase(sn0.Epoch(), res.Cover.Communities())
	}
	e.covers = []*cover{sn0.cover}

	if r := s.opts.Obs; r != nil {
		e.events = r.CounterVec("rslpa_evolution_events_total",
			"Community evolution events emitted, by transition kind.", "kind")
		for _, k := range evolution.Kinds {
			e.events.With(string(k)) // pre-create every kind: scrapes show zeros, not absences
		}
		e.diffSeconds = r.Histogram("rslpa_evolution_diff_seconds",
			"Evolution diff latency per published snapshot: matching its communities against the previous epoch's (its extraction ran before the swap, timed by rslpa_stream_extract_seconds).",
			obs.LatencyBuckets)
		r.GaugeFunc("rslpa_evolution_lineages",
			"Community lineages alive at the current epoch.",
			func() float64 {
				e.mu.RLock()
				defer e.mu.RUnlock()
				return float64(e.tr.LiveLineages())
			})
	}
	s.evo = e
	return nil
}

// advanceEvolution diffs the freshly published snapshot against the
// tracker baseline. Called only by the maintenance goroutine, right after
// the snapshot swap and before the checkpoint file is written (so the
// serialized evolution state is always at the checkpoint's epoch). A
// failure latches the tier — detection keeps running, /events turns 503.
func (s *Service) advanceEvolution(next *Snapshot) time.Duration {
	e := s.evo
	e.mu.RLock()
	failed := e.failed
	e.mu.RUnlock()
	if failed != nil {
		return 0
	}
	t0 := time.Now()
	res, err := next.communities()
	if err != nil {
		e.fail(fmt.Errorf("stream: evolution extraction: %w", err))
		s.log.Error("stream: evolution diff failed; evolution tier latched", "error", err)
		return time.Since(t0)
	}
	e.mu.Lock()
	evs, err := e.tr.Advance(next.Epoch(), res.Cover.Communities())
	if err == nil {
		// Window: the head's (extracted) cover plus up to depth past ones.
		e.covers = trimFront(append(e.covers, next.cover), e.depth+1)
	} else {
		e.failed = fmt.Errorf("stream: evolution diff: %w", err)
	}
	e.mu.Unlock()
	dur := time.Since(t0)
	if err != nil {
		s.log.Error("stream: evolution diff failed; evolution tier latched", "error", err)
		return dur
	}
	for _, ev := range evs {
		e.events.With(string(ev.Kind)).Inc()
	}
	e.diffSeconds.Observe(dur.Seconds())
	return dur
}

func (e *evoTier) fail(err error) {
	e.mu.Lock()
	if e.failed == nil {
		e.failed = err
	}
	e.mu.Unlock()
}

func (e *evoTier) failure() error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.failed
}

// saveState serializes the tracker baseline. Called by the maintenance
// goroutine after advanceEvolution, so the image is at the snapshot's
// epoch.
func (e *evoTier) saveState() ([]byte, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.failed != nil {
		return nil, e.failed
	}
	return e.tr.Save()
}

// eventsResponse is the GET /events envelope. Field order and content are
// deterministic, so writer and follower responses for the same epochs are
// byte-identical.
type eventsResponse struct {
	WriterEpoch uint64            `json:"writer_epoch"`
	OldestEpoch uint64            `json:"oldest_epoch"`
	Events      []evolution.Event `json:"events"`
}

// handleEvents serves the evolution event journal with /feed-style cursor
// semantics: ?from=E returns the events of epochs (E, E+max]; a cursor
// behind the retained horizon gets 410 Gone and must restart from the
// current epoch (or a fresh /evolution/state).
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	e := s.evo
	if e == nil {
		writeError(w, http.StatusNotFound, errors.New("evolution tracking disabled (EvolutionDepth = 0)"))
		return
	}
	if err := e.failure(); err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("from: %w", err))
		return
	}
	maxEpochs := eventsMaxDefault
	if ms := q.Get("max"); ms != "" {
		m, err := strconv.Atoi(ms)
		if err != nil || m < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("max: want a positive integer, got %q", ms))
			return
		}
		maxEpochs = min(m, eventsMaxLimit)
	}
	e.mu.RLock()
	oldest, newest := e.tr.Window()
	evs, status := e.tr.Events(from, maxEpochs)
	e.mu.RUnlock()
	if status == evolution.FeedGone {
		WriteJSON(w, http.StatusGone, map[string]any{
			"error":        fmt.Sprintf("cursor %d is behind the retained event horizon", from),
			"oldest_epoch": oldest,
			"writer_epoch": newest,
		})
		return
	}
	WriteJSON(w, http.StatusOK, eventsResponse{WriterEpoch: newest, OldestEpoch: oldest, Events: evs})
}

// handleCommunityHistory serves one lineage's retained life-cycle.
func (s *Service) handleCommunityHistory(w http.ResponseWriter, r *http.Request) {
	e := s.evo
	if e == nil {
		writeError(w, http.StatusNotFound, errors.New("evolution tracking disabled (EvolutionDepth = 0)"))
		return
	}
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("lineage id: %w", err))
		return
	}
	e.mu.RLock()
	h, ok := e.tr.History(id)
	epoch := e.tr.Epoch()
	e.mu.RUnlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("lineage %d unknown (never seen, or dead behind the horizon)", id))
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"epoch":   epoch,
		"lineage": h.Lineage,
		"born":    h.Born,
		"alive":   h.Alive,
		"size":    h.Size,
		"events":  h.Events,
	})
}

// coverAt returns the retained cover of the given epoch, or the window
// bounds when it is outside.
func (e *evoTier) coverAt(epoch uint64) (c *cover, oldest, newest uint64) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	oldest = e.covers[0].epoch
	newest = e.covers[len(e.covers)-1].epoch
	if epoch >= oldest && epoch <= newest {
		c = e.covers[epoch-oldest]
	}
	return c, oldest, newest
}

// handleEvolutionState serves the serialized tracker baseline captured
// with the last GET /checkpoint (same epoch, stamped in the X-Rslpa-Epoch
// header), so a follower that bootstraps from that checkpoint can adopt
// the writer's exact lineage assignments. It captures the head itself
// only when nothing was captured yet; a capture for another follower
// between a follower's two GETs shows as an epoch mismatch, which the
// follower retries.
func (s *Service) handleEvolutionState(w http.ResponseWriter, r *http.Request) {
	e := s.evo
	if e == nil || s.opts.JournalDepth <= 0 {
		writeError(w, http.StatusNotFound, errors.New("evolution state unavailable (needs EvolutionDepth and JournalDepth > 0)"))
		return
	}
	err := cmp.Or(s.closedErr(), s.failureErr(), e.failure())
	s.jmu.RLock()
	img := s.boot
	s.jmu.RUnlock()
	if err == nil && img.evo == nil {
		img, err = s.bootstrap()
	}
	if err == nil && img.evo == nil {
		err = errors.New("evolution state not captured")
	}
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(CheckpointEpochHeader, strconv.FormatUint(img.epoch, 10))
	w.Write(img.evo)
}

// writeEvolutionSidecar persists the current in-memory evolution state
// next to the detector checkpoint, through the same writeFileAtomic, so a
// restarted writer resumes lineage assignment where it left off.
func (s *Service) writeEvolutionSidecar() error {
	path := s.opts.CheckpointPath + evolutionSidecarSuffix
	data, err := s.evo.saveState()
	if err != nil {
		// The tier is latched: drop any stale sidecar (best effort) so a
		// restart rebases fresh instead of resuming an older baseline, and
		// leave the detector checkpoint's success intact.
		os.Remove(path)
		return nil
	}
	return writeFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
