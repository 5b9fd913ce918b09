package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rslpa/internal/core"
	"rslpa/internal/dynamic"
)

func newHTTPService(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	st, err := core.Run(testGraph(), core.Config{T: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(seqDet{st}, Options{FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() { srv.Close(); s.Close() })
	return s, srv
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestHTTPEditsAndCommunities(t *testing.T) {
	_, srv := newHTTPService(t)

	// Bare-array form with read-your-writes.
	var post struct {
		Accepted int    `json:"accepted"`
		Epoch    uint64 `json:"epoch"`
	}
	code := postJSON(t, srv.URL+"/edits?wait=1",
		`[{"op":"insert","u":0,"v":5},{"op":"delete","u":2,"v":3}]`, &post)
	if code != http.StatusAccepted || post.Accepted != 2 || post.Epoch != 1 {
		t.Fatalf("POST /edits: code=%d accepted=%d epoch=%d", code, post.Accepted, post.Epoch)
	}

	// Envelope form.
	code = postJSON(t, srv.URL+"/edits?wait=1", `{"edits":[{"op":"insert","u":1,"v":4}]}`, &post)
	if code != http.StatusAccepted || post.Epoch != 2 {
		t.Fatalf("POST envelope: code=%d epoch=%d", code, post.Epoch)
	}

	var comm struct {
		Epoch       uint64     `json:"epoch"`
		Vertices    int        `json:"vertices"`
		Edges       int        `json:"edges"`
		Communities [][]uint32 `json:"communities"`
	}
	if code := getJSON(t, srv.URL+"/communities", &comm); code != http.StatusOK {
		t.Fatalf("GET /communities: %d", code)
	}
	if comm.Epoch != 2 || comm.Vertices != 6 || comm.Edges != 8 {
		t.Fatalf("communities: %+v", comm)
	}
	if len(comm.Communities) == 0 {
		t.Fatal("no communities served")
	}
}

// Readers hammer /communities and /vertex/{v} while batches publish, with
// the tier off (extraction on read demand) and on (then also ?epoch=E of
// the epoch before the newest they saw): every reader sees head epochs in order,
// every /communities body of one epoch is the same bytes whichever reader
// and route got it, and that is the head body recorded at the epoch's
// drain, which with the tier on ?epoch=E still serves afterwards.
func TestReadersHammerWhilePublishing(t *testing.T) {
	for _, evoDepth := range []int{0, 64} {
		st, g := lfrState(t, 300, 20)
		batches, err := dynamic.Stream(g.Clone(), 8, 16, 59)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(seqDet{st}, Options{MaxBatch: 1 << 20, FlushInterval: time.Hour, EvolutionDepth: evoDepth})
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		heads := map[uint64][]byte{0: requireRenderedBody(t, h, "/communities", s.snap.Load())}

		var mu sync.Mutex
		bodies := map[uint64][]byte{}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				var last uint64
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					path := "/communities"
					history := evoDepth > 0 && (i+r)%4 == 2
					switch {
					case (i+r)%2 == 1:
						path = fmt.Sprintf("/vertex/%d", (i*7+r)%300)
					case history:
						// The window appends an epoch's cover just after its
						// swap, so the epoch before the newest seen is the
						// one sure to be in it.
						path = fmt.Sprintf("/communities?epoch=%d", max(last, 1)-1)
					}
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
					var doc struct {
						Epoch uint64 `json:"epoch"`
					}
					if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &doc) != nil {
						t.Errorf("GET %s = %d: %.200s", path, rec.Code, rec.Body.Bytes())
						return
					}
					if !history {
						if doc.Epoch < last {
							t.Errorf("reader %d saw epoch %d after %d", r, doc.Epoch, last)
							return
						}
						last = doc.Epoch
					}
					if strings.HasPrefix(path, "/vertex/") {
						continue
					}
					mu.Lock()
					if prev, ok := bodies[doc.Epoch]; !ok {
						bodies[doc.Epoch] = rec.Body.Bytes()
					} else if !bytes.Equal(prev, rec.Body.Bytes()) {
						t.Errorf("epoch %d served two different /communities bodies", doc.Epoch)
					}
					mu.Unlock()
				}
			}(r)
		}
		for _, b := range batches {
			if err := s.Submit(b...); err != nil {
				t.Fatal(err)
			}
			if err := s.Drain(); err != nil {
				t.Fatal(err)
			}
			sn := s.snap.Load()
			heads[sn.Epoch()] = requireRenderedBody(t, h, "/communities", sn)
		}
		close(stop)
		wg.Wait()

		if len(bodies) < 2 {
			t.Errorf("evolution depth %d: readers saw only %d epochs", evoDepth, len(bodies))
		}
		for epoch, body := range bodies {
			if !bytes.Equal(body, heads[epoch]) {
				t.Errorf("evolution depth %d, epoch %d: served body differs from the head body recorded at its drain", evoDepth, epoch)
			}
		}
		if s.evo != nil {
			requireHistory(t, h, heads, s.snap.Load().Epoch(), evoDepth)
		}
		s.Close()
	}
}

func TestHTTPVertex(t *testing.T) {
	_, srv := newHTTPService(t)
	var got struct {
		Epoch       uint64 `json:"epoch"`
		Present     bool   `json:"present"`
		Degree      int    `json:"degree"`
		Communities []int  `json:"communities"`
		Labels      []int  `json:"labels"`
	}
	if code := getJSON(t, srv.URL+"/vertex/2?labels=1", &got); code != http.StatusOK {
		t.Fatalf("GET /vertex/2: %d", code)
	}
	if !got.Present || got.Degree != 3 || len(got.Labels) != 21 {
		t.Fatalf("vertex 2: %+v", got)
	}
	if got.Communities == nil {
		t.Fatal("membership missing")
	}

	if code := getJSON(t, srv.URL+"/vertex/99", &got); code != http.StatusOK {
		t.Fatalf("GET /vertex/99: %d", code)
	}
	if got.Present {
		t.Fatal("vertex 99 reported present")
	}

	var e map[string]any
	if code := getJSON(t, srv.URL+"/vertex/notanumber", &e); code != http.StatusBadRequest {
		t.Fatalf("bad vertex id: %d", code)
	}
}

func TestHTTPStatsAndHealth(t *testing.T) {
	s, srv := newHTTPService(t)
	var post map[string]any
	postJSON(t, srv.URL+"/edits?wait=1", `[{"op":"insert","u":0,"v":4}]`, &post)

	var st Stats
	if code := getJSON(t, srv.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("GET /stats: %d", code)
	}
	if st.Epoch != 1 || st.SubmittedEdits != 1 || st.Batches != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.QueueCapacity == 0 {
		t.Fatal("queue capacity missing")
	}
	// The sparse-schedule counters must be surfaced under their wire names.
	var raw map[string]any
	if code := getJSON(t, srv.URL+"/stats", &raw); code != http.StatusOK {
		t.Fatalf("GET /stats: %d", code)
	}
	for _, k := range []string{"levels_skipped", "rounds_run", "last_levels_skipped", "last_rounds_run"} {
		if _, ok := raw[k]; !ok {
			t.Fatalf("/stats missing %q", k)
		}
	}

	var h map[string]any
	if code := getJSON(t, srv.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("GET /healthz: %d", code)
	}
	s.Close()
	if code := getJSON(t, srv.URL+"/healthz", &h); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after close: %d", code)
	}
	var e map[string]any
	if code := postJSON(t, srv.URL+"/edits", `[{"op":"insert","u":0,"v":9}]`, &e); code != http.StatusServiceUnavailable {
		t.Fatalf("POST after close: %d", code)
	}
}

func TestHTTPRejectsMalformedEdits(t *testing.T) {
	_, srv := newHTTPService(t)
	var e map[string]any
	if code := postJSON(t, srv.URL+"/edits", `[{"op":"upsert","u":1,"v":2}]`, &e); code != http.StatusBadRequest {
		t.Fatalf("unknown op: %d", code)
	}
	if code := postJSON(t, srv.URL+"/edits", `{"edits": 12}`, &e); code != http.StatusBadRequest {
		t.Fatalf("malformed envelope: %d", code)
	}
	if code := postJSON(t, srv.URL+"/edits", `not json`, &e); code != http.StatusBadRequest {
		t.Fatalf("non-JSON body: %d", code)
	}
}

func TestHTTPOversizedBodyIs413(t *testing.T) {
	_, srv := newHTTPService(t)
	// One byte past the 16 MiB cap: the read hits MaxBytesReader's limit
	// and the handler must answer 413, not the generic 400. Padding with
	// spaces keeps the body cheap to build and syntactically irrelevant —
	// the size check fires before any JSON is parsed.
	body := strings.Repeat(" ", maxEditBody) + `[]`
	resp, err := http.Post(srv.URL+"/edits", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: code=%d, want 413", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decode 413 body: %v", err)
	}
	if e.Error == "" {
		t.Fatal("413 body has no error detail")
	}
}

func TestHTTPWaitOnLatchedServiceReportsAccepted(t *testing.T) {
	st, err := core.Run(testGraph(), core.Config{T: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	s, err := New(failDet{seqDet{st}, &calls}, Options{FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() { srv.Close(); s.Close() })

	var post map[string]any
	if code := postJSON(t, srv.URL+"/edits?wait=1", `[{"op":"insert","u":0,"v":5}]`, &post); code != http.StatusAccepted {
		t.Fatalf("first edit: %d", code) // first update succeeds, detector fails after
	}
	var e struct {
		Error    string `json:"error"`
		Accepted *int   `json:"accepted"`
	}
	code := postJSON(t, srv.URL+"/edits?wait=1",
		`[{"op":"insert","u":1,"v":5},{"op":"insert","u":2,"v":5}]`, &e)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("latching edit: code=%d, want 503", code)
	}
	// The edits were swallowed by the latched queue before the drain
	// failed; the error body must say how many, plus the failure detail.
	if e.Accepted == nil || *e.Accepted != 2 {
		t.Fatalf("503 body accepted=%v, want 2", e.Accepted)
	}
	if !strings.Contains(e.Error, "detector update failed") || !strings.Contains(e.Error, "synthetic engine failure") {
		t.Fatalf("503 body error lacks latch detail: %q", e.Error)
	}
}
