package replica

import (
	"net/http"

	"rslpa/internal/stream"
)

// HTTP front end of a follower: the read half of the writer's API plus
// replication-lag observability. Notably absent: POST /edits — a replica
// is read-only; writes belong to the writer.
//
//	GET /communities   the current local snapshot's cover with its epoch
//	                   (?epoch=E historical reads with EvolutionDepth > 0)
//	GET /vertex/{v}    membership and degree of one vertex
//	GET /events        community evolution events after ?from=E
//	                   (EvolutionDepth > 0; byte-compatible with the
//	                   writer's stream because the same diffs are replayed)
//	GET /community/{id}/history  one lineage's retained life-cycle
//	GET /stats         inner service counters plus follower_epoch,
//	                   writer_epoch, lag_batches, catchup_total,
//	                   rebootstraps and replication_error
//	GET /healthz       200 while the tail loop runs, 503 after Close
//	GET /metrics       Prometheus text exposition (Options.Obs set):
//	                   the follower's rslpa_replica_* families plus the
//	                   inner read service's rslpa_stream_* families
//	GET /debug/batches per-replayed-batch pipeline traces
//	                   (Options.Trace set)
//	GET /version       build identity, start time and uptime
//
// /communities and /vertex/{v} delegate to the inner read service's own
// handler, so responses are byte-compatible with the writer's — a load
// balancer can mix writer and followers for reads.

// Handler returns the follower's HTTP front end.
func (f *Follower) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /communities", f.delegate)
	mux.HandleFunc("GET /vertex/{v}", f.delegate)
	mux.HandleFunc("GET /events", f.delegate)
	mux.HandleFunc("GET /community/{id}/history", f.delegate)
	mux.HandleFunc("GET /stats", f.handleStats)
	mux.HandleFunc("GET /healthz", f.handleHealthz)
	// The registry and trace ring are shared with the inner service, and
	// its handler already mounts them (plus /version) — delegate, so the
	// observability surface is route-compatible with the writer's.
	mux.HandleFunc("GET /metrics", f.delegate)
	mux.HandleFunc("GET /debug/batches", f.delegate)
	mux.HandleFunc("GET /version", f.delegate)
	return mux
}

// delegate serves a read endpoint from the current replay generation.
func (f *Follower) delegate(w http.ResponseWriter, r *http.Request) {
	f.cur.Load().h.ServeHTTP(w, r)
}

func (f *Follower) handleStats(w http.ResponseWriter, r *http.Request) {
	stream.WriteJSON(w, http.StatusOK, f.Stats())
}

func (f *Follower) handleHealthz(w http.ResponseWriter, r *http.Request) {
	select {
	case <-f.quit:
		stream.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"error": ErrClosed.Error()})
		return
	default:
	}
	st := f.Stats()
	body := map[string]any{
		"follower_epoch": st.FollowerEpoch,
		"writer_epoch":   st.WriterEpoch,
		"lag_batches":    st.LagBatches,
	}
	if st.ReplicationError != "" {
		// Liveness stays 200 — local snapshots keep serving — but a stuck
		// tail loop must be visible to operators.
		body["replication_error"] = st.ReplicationError
	}
	stream.WriteJSON(w, http.StatusOK, body)
}
