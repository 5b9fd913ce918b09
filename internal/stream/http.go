package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"rslpa/internal/graph"
	"rslpa/internal/obs"
)

// maxEditBody bounds a single POST /edits body (16 MiB ≈ one million
// edits), protecting the service from unbounded request buffering.
const maxEditBody = 16 << 20

// HTTP front end. All bodies are JSON.
//
//	POST /edits        {"edits":[{"op":"insert","u":1,"v":2}, ...]}
//	                   (a bare array of edits is also accepted; append
//	                   ?wait=1 to drain before replying — read-your-writes)
//	GET  /communities  the current snapshot's cover with its epoch
//	GET  /vertex/{v}   membership and degree of one vertex
//	                   (?labels=1 includes the raw label sequence)
//	GET  /stats        operational counters (see Stats), including the
//	                   COW publication meters last_publish_micros,
//	                   shards_republished and snapshot_shards
//	GET  /healthz      200 while the service accepts edits, 503 after Close
//	                   or a latched detector failure; the body surfaces a
//	                   degraded checkpoint_error while durability suffers
//	GET  /readyz       like /healthz but strict: 503 also while the last
//	                   checkpoint write failed (traffic should drain away
//	                   from a writer that is losing durability)
//	GET  /feed         replication feed for followers (see feed.go)
//	GET  /checkpoint   bootstrap checkpoint for followers (see feed.go)
//	GET  /events       community evolution events after ?from=E
//	                   (see evolution.go; EvolutionDepth > 0)
//	GET  /community/{id}/history  one lineage's retained life-cycle
//	GET  /evolution/state  serialized evolution baseline for followers
//	GET  /metrics      Prometheus text exposition (Options.Obs set)
//	GET  /debug/batches  recent + slowest per-batch pipeline traces
//	                   (Options.Trace set)
//	GET  /version      build identity, start time and uptime
//
// Failure semantics of POST /edits: after a detector failure the service
// latches — Submit still accepts edits (202 without ?wait), but batches
// are no longer applied and a ?wait=1 drain reports the latched error
// with 503. The edits were nonetheless swallowed by the latched queue,
// so the 503 body carries the "accepted" count alongside the error
// detail; a client must not infer from the status alone that nothing was
// consumed. Oversized bodies (> 16 MiB) are rejected with 413.

// editJSON is the wire form of one edge edit.
type editJSON struct {
	Op string `json:"op"` // "insert" or "delete"
	U  uint32 `json:"u"`
	V  uint32 `json:"v"`
}

func (e editJSON) edit() (graph.Edit, error) {
	switch e.Op {
	case "insert":
		return graph.Edit{Op: graph.Insert, U: e.U, V: e.V}, nil
	case "delete":
		return graph.Edit{Op: graph.Delete, U: e.U, V: e.V}, nil
	default:
		return graph.Edit{}, fmt.Errorf("unknown op %q (want \"insert\" or \"delete\")", e.Op)
	}
}

// wireEdit is the inverse of editJSON.edit, used by the replication feed.
func wireEdit(e graph.Edit) editJSON {
	op := "insert"
	if e.Op == graph.Delete {
		op = "delete"
	}
	return editJSON{Op: op, U: e.U, V: e.V}
}

// Handler returns the service's HTTP front end.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /edits", s.handleEdits)
	mux.HandleFunc("GET /communities", s.observed(s.handleCommunities))
	mux.HandleFunc("GET /vertex/{v}", s.observed(s.handleVertex))
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /feed", s.handleFeed)
	mux.HandleFunc("GET /checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /events", s.handleEvents)
	mux.HandleFunc("GET /community/{id}/history", s.observed(s.handleCommunityHistory))
	mux.HandleFunc("GET /evolution/state", s.handleEvolutionState)
	if s.opts.Obs != nil {
		mux.Handle("GET /metrics", s.opts.Obs.Handler())
	}
	if s.trace != nil {
		mux.Handle("GET /debug/batches", s.trace.Handler())
	}
	mux.HandleFunc("GET /version", obs.HandleVersion)
	return mux
}

// observed wraps a read endpoint with the query-latency histogram. With
// instrumentation off it returns the handler untouched — zero overhead.
func (s *Service) observed(h http.HandlerFunc) http.HandlerFunc {
	if s.met == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h(w, r)
		s.met.querySeconds.Observe(time.Since(t0).Seconds())
	}
}

// WriteJSON writes v as a JSON response body with the given status: the
// one encoder behind every JSON route of the writer and of its followers.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Service) handleEdits(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxEditBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("read body: %w", err))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	var wire []editJSON
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		err = json.Unmarshal(trimmed, &wire)
	} else {
		var envelope struct {
			Edits []editJSON `json:"edits"`
		}
		err = json.Unmarshal(trimmed, &envelope)
		wire = envelope.Edits
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode edits: %w", err))
		return
	}
	edits := make([]graph.Edit, len(wire))
	for i, e := range wire {
		ed, err := e.edit()
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("edit %d: %w", i, err))
			return
		}
		edits[i] = ed
	}
	if err := s.Submit(edits...); err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	resp := map[string]any{"accepted": len(edits), "queue_depth": len(s.in)}
	if r.URL.Query().Get("wait") != "" {
		if err := s.Drain(); err != nil {
			// The edits were accepted before the drain failed (the
			// service latches; see the comment block above), so the
			// error body must still carry the accepted count next to
			// the failure detail.
			WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
				"error":    err.Error(),
				"accepted": len(edits),
			})
			return
		}
		resp["epoch"] = s.snap.Load().Epoch()
	}
	WriteJSON(w, http.StatusAccepted, resp)
}

func (s *Service) handleCommunities(w http.ResponseWriter, r *http.Request) {
	sn := s.Snapshot()
	c := sn.cover
	if es := r.URL.Query().Get("epoch"); es != "" {
		// Historical read over the evolution tier's retained cover window:
		// behind the window is 410 Gone (like /feed and /events), ahead of
		// the head is 404.
		if s.evo == nil {
			writeError(w, http.StatusNotFound, errors.New("?epoch requires evolution tracking (EvolutionDepth > 0)"))
			return
		}
		epoch, err := strconv.ParseUint(es, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("epoch: %w", err))
			return
		}
		hist, oldest, newest := s.evo.coverAt(epoch)
		switch {
		case hist != nil:
			c = hist
		case epoch < oldest:
			WriteJSON(w, http.StatusGone, map[string]any{
				"error":        fmt.Sprintf("epoch %d is behind the retained snapshot window", epoch),
				"oldest_epoch": oldest,
				"writer_epoch": newest,
			})
			return
		default:
			writeError(w, http.StatusNotFound, fmt.Errorf("epoch %d not published yet (head is %d)", epoch, newest))
			return
		}
	}
	sn.ext.noteRead() // a read, head or ?epoch=E, as Communities records one
	if src := c.src.Load(); src != nil {
		src.extract() // nobody has yet: a lazy head, or a restored BaseEpoch
	}
	if c.err != nil {
		writeError(w, http.StatusInternalServerError, c.err)
		return
	}
	// A cover never changes, so neither does its body: encode it for the
	// first request and hand every later one the same bytes.
	c.render.Do(func() {
		var buf bytes.Buffer
		json.NewEncoder(&buf).Encode(communitiesDoc(c))
		c.body = buf.Bytes()
	})
	w.Header().Set("Content-Type", "application/json")
	w.Write(c.body)
}

// communitiesDoc is the GET /communities document of the extracted cover
// c. encoding/json writes map keys sorted, so its encoding is a function
// of the epoch alone.
func communitiesDoc(c *cover) map[string]any {
	return map[string]any{
		"epoch":       c.epoch,
		"vertices":    c.nv,
		"edges":       c.ne,
		"tau1":        c.res.Tau1,
		"tau2":        c.res.Tau2,
		"entropy":     c.res.Entropy,
		"strong":      c.res.Strong,
		"weak":        c.res.Weak,
		"communities": c.res.Cover.Communities(),
	}
}

func (s *Service) handleVertex(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("v"), 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("vertex id: %w", err))
		return
	}
	v := uint32(id)
	sn := s.Snapshot()
	resp := map[string]any{
		"epoch":   sn.Epoch(),
		"vertex":  v,
		"present": sn.HasVertex(v),
		"degree":  sn.Degree(v),
	}
	if sn.HasVertex(v) {
		member, err := sn.Membership(v)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		if member == nil {
			member = []int{}
		}
		resp["communities"] = member
		if r.URL.Query().Get("labels") != "" {
			resp["labels"] = sn.Labels(v)
		}
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	select {
	case <-s.quit:
		writeError(w, http.StatusServiceUnavailable, ErrClosed)
	default:
		if err := s.failureErr(); err != nil {
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		body := map[string]any{"epoch": s.snap.Load().Epoch()}
		if err := s.checkpointFailure(); err != nil {
			// Liveness stays 200 — detection state is healthy and queries
			// are served — but the degraded durability must be visible, not
			// swallowed: deployments alert on this field (or on /readyz,
			// which turns it into a non-200).
			body["checkpoint_error"] = err.Error()
		}
		WriteJSON(w, http.StatusOK, body)
	}
}

// handleReadyz is the strict readiness probe: unlike /healthz it also
// fails while the most recent checkpoint write failed, so a load balancer
// drains traffic from a writer that is losing durability even though it
// still answers queries.
func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	select {
	case <-s.quit:
		writeError(w, http.StatusServiceUnavailable, ErrClosed)
		return
	default:
	}
	if err := s.failureErr(); err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	if err := s.checkpointFailure(); err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"epoch": s.snap.Load().Epoch()})
}
