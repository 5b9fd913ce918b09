package stream

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"rslpa/internal/graph"
)

// Replication feed: the writer-side half of the follower protocol.
//
//	GET /feed?from=E&max=N  journaled canonical batches with epochs in
//	                        (E, E+N], in epoch order — 200 with a
//	                        FeedResponse; 410 Gone when E is behind the
//	                        journal horizon (re-bootstrap from the
//	                        checkpoint); 404 when journaling is disabled
//	GET /checkpoint         the detector checkpoint, encoded at the head on
//	                        request, as application/octet-stream, its
//	                        epoch in the X-Rslpa-Epoch header; 404 when
//	                        disabled, 503 when closed or latched
//
// Both exist only when Options.JournalDepth > 0. A follower bootstraps
// from GET /checkpoint (epoch C), then polls GET /feed?from=C applying
// each batch in order. C is the head when the maintenance goroutine
// encodes it between batches, so it sits inside the journal horizon
// whatever JournalDepth is — a fresh bootstrap never immediately 410s.
// Requests in one epoch share one encode, and its bytes are dropped when
// the next epoch is published.

// CheckpointEpochHeader carries the epoch of the serialized checkpoint
// returned by GET /checkpoint.
const CheckpointEpochHeader = "X-Rslpa-Epoch"

// FeedResponse is the wire form of GET /feed.
type FeedResponse struct {
	// WriterEpoch is the newest journaled epoch — the epoch a fully
	// caught-up follower would be at.
	WriterEpoch uint64 `json:"writer_epoch"`
	// OldestEpoch is the oldest epoch still in the journal (meaningful
	// only when the journal is non-empty; 0 otherwise).
	OldestEpoch uint64      `json:"oldest_epoch"`
	Batches     []FeedEntry `json:"batches"`
}

// FeedEntry is one journaled canonical batch: applying Edits to a
// detector at epoch Epoch−1 advances it to exactly Epoch.
type FeedEntry struct {
	Epoch uint64     `json:"epoch"`
	Edits []editJSON `json:"edits"`
}

// GraphEdits converts the entry's wire edits back to graph form, in
// order — the writer's exact canonical batch, ready for replay.
func (e FeedEntry) GraphEdits() ([]graph.Edit, error) {
	out := make([]graph.Edit, len(e.Edits))
	for i, we := range e.Edits {
		ed, err := we.edit()
		if err != nil {
			return nil, fmt.Errorf("feed batch %d edit %d: %w", e.Epoch, i, err)
		}
		out[i] = ed
	}
	return out, nil
}

// feedMaxDefault and feedMaxLimit bound how many batches one GET /feed
// response carries (each batch holds up to MaxBatch edits).
const (
	feedMaxDefault = 64
	feedMaxLimit   = 1024
)

// feedStatus classifies a feed request against the journal.
type feedStatus int

const (
	feedOK       feedStatus = iota
	feedGone                // from is behind the journal horizon
	feedDisabled            // JournalDepth == 0
)

// feed collects the journaled batches with epochs in (from, from+max] into
// wire form. Journal epochs are contiguous and ascending (one entry per
// applied batch), so the window is a slice of the ring.
func (s *Service) feed(from uint64, max int) (FeedResponse, feedStatus) {
	if s.opts.JournalDepth <= 0 {
		return FeedResponse{}, feedDisabled
	}
	s.jmu.RLock()
	defer s.jmu.RUnlock()
	resp := FeedResponse{WriterEpoch: s.journalEpoch}
	if len(s.journal) > 0 {
		resp.OldestEpoch = s.journal[0].epoch
	}
	if from >= s.journalEpoch {
		// Caught up (or ahead, which the follower detects by comparing
		// its epoch against WriterEpoch): nothing to send.
		return resp, feedOK
	}
	if len(s.journal) == 0 || s.journal[0].epoch > from+1 {
		return resp, feedGone
	}
	start := int(from + 1 - s.journal[0].epoch)
	for i := start; i < len(s.journal) && i-start < max; i++ {
		fb := s.journal[i]
		entry := FeedEntry{Epoch: fb.epoch, Edits: make([]editJSON, len(fb.edits))}
		for j, e := range fb.edits {
			entry.Edits[j] = wireEdit(e)
		}
		resp.Batches = append(resp.Batches, entry)
	}
	return resp, feedOK
}

// bootstrap returns the bootstrap image at the head, captured by the
// maintenance goroutine between batches; ErrClosed once it has exited.
func (s *Service) bootstrap() (img bootImage, err error) {
	if !s.between(func() { img, err = s.captureBoot() }) {
		return img, ErrClosed
	}
	return img, err
}

// captureBoot encodes the detector and the evolution baseline at the head
// unless this epoch's image is already held. It runs on the maintenance
// goroutine, the only writer of s.boot, so it reads s.boot without jmu. A
// latched detector may be half-updated and is never encoded.
func (s *Service) captureBoot() (bootImage, error) {
	if err := s.failureErr(); err != nil {
		return bootImage{}, err
	}
	epoch := s.snap.Load().Epoch()
	if s.boot.data != nil && s.boot.epoch == epoch {
		return s.boot, nil
	}
	t0 := time.Now()
	var buf bytes.Buffer
	if err := s.det.Save(&buf); err != nil {
		return bootImage{}, fmt.Errorf("stream: checkpoint: %w", err)
	}
	img := bootImage{epoch: epoch, data: buf.Bytes()}
	if s.evo != nil {
		img.evo, _ = s.evo.saveState() // nil while the tier is latched
	}
	if s.met != nil {
		s.met.checkpointSeconds.Observe(time.Since(t0).Seconds())
	}
	s.jmu.Lock()
	s.boot = img
	s.jmu.Unlock()
	return img, nil
}

func (s *Service) handleFeed(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("feed: from: %w", err))
		return
	}
	max := feedMaxDefault
	if ms := q.Get("max"); ms != "" {
		m, err := strconv.Atoi(ms)
		if err != nil || m <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("feed: max=%q must be a positive integer", ms))
			return
		}
		max = min(m, feedMaxLimit)
	}
	resp, status := s.feed(from, max)
	switch status {
	case feedDisabled:
		writeError(w, http.StatusNotFound, fmt.Errorf("feed: journaling disabled (Options.JournalDepth == 0)"))
	case feedGone:
		// The follower's epoch fell behind the journal horizon; it must
		// re-bootstrap from GET /checkpoint. 410 carries the same envelope
		// so the client learns how far behind it was.
		WriteJSON(w, http.StatusGone, resp)
	default:
		WriteJSON(w, http.StatusOK, resp)
	}
}

func (s *Service) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.opts.JournalDepth <= 0 {
		writeError(w, http.StatusNotFound, fmt.Errorf("checkpoint: journaling disabled (Options.JournalDepth == 0)"))
		return
	}
	img, err := s.bootstrap()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(CheckpointEpochHeader, strconv.FormatUint(img.epoch, 10))
	w.Header().Set("Content-Length", strconv.Itoa(len(img.data)))
	w.Write(img.data)
}
