package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"time"

	"rslpa"
	"rslpa/internal/replica"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	workload string
	seed     uint64
	seconds  int  // measured window
	trace    bool // record spans and emit the per-layer metrics
	n        int  // LFR vertices
	t        int  // detection iterations
	outDir   string
}

func (c runConfig) window() time.Duration { return time.Duration(c.seconds) * time.Second }

// warmup precedes the measured window so caches fill and lazy set-up (the
// extraction scratch, connection pools) finishes untimed.
func (c runConfig) warmup() time.Duration {
	return min(c.window()/5, 5*time.Second)
}

// workloadDef is one named workload: how its system is configured and the
// traffic it runs.
type workloadDef struct {
	name     string
	detect   rslpa.Config // Workers/TCP; T and Seed are filled in per run
	opts     rslpa.ServiceOptions
	http     bool // serve the writer's Handler over loopback
	follower bool // attach an in-process follower over loopback (implies http)
	rate     int  // edits per second offered by the fixed-rate ingest workloads
	run      func(*rig) (*windowResult, error)
}

// rig is the system under test as one set-up built it.
type rig struct {
	cfg    runConfig
	def    *workloadDef
	tr     *tracer
	graph  *rslpa.Graph // the start graph; Detect works on its own copy
	truth  *rslpa.Cover
	svc    *rslpa.Service
	det    *rslpa.Detector // owned by svc while it runs
	srv    *httptest.Server
	fol    *replica.Follower
	folSrv *httptest.Server
	// feedPolls counts the follower's GET /feed round trips, observed at
	// its HTTP client: the harness's own count, no follower telemetry.
	feedPolls    *atomic.Int64
	folTransport *http.Transport
	// ckptPath holds the detector's start-state checkpoint for the shadow
	// replay. It lives in a file so the harness does not inflate
	// heap_live_mb by the checkpoint's size.
	ckptPath string

	detectS     float64
	bootstrapMS float64
}

type countingTransport struct {
	next  http.RoundTripper
	feeds *atomic.Int64
}

func (t countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/feed" {
		t.feeds.Add(1)
	}
	return t.next.RoundTrip(req)
}

// lfrSeed derives the graph seed from the run seed. The graph and the
// detection draw from differently seeded streams, as the issue fixes it
// (LFR seed = −seed, detection seed = seed).
func lfrSeed(seed uint64) uint64 { return -seed }

// setUp builds the system once and reports how long that took: graph
// generation, detection, service start and, where the workload has one,
// the follower reaching the writer's epoch. saveStart additionally
// checkpoints the detector between detection and service start, untimed.
func setUp(cfg runConfig, def *workloadDef, saveStart bool) (r *rig, took time.Duration, err error) {
	r = &rig{cfg: cfg, def: def}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	t0 := time.Now()
	p := rslpa.DefaultLFR(cfg.n)
	p.Seed = lfrSeed(cfg.seed)
	if r.graph, r.truth, err = rslpa.GenerateLFR(p); err != nil {
		return r, 0, fmt.Errorf("generate LFR: %w", err)
	}
	dc := def.detect
	dc.T, dc.Seed = cfg.t, cfg.seed
	d0 := time.Now()
	if r.det, err = rslpa.Detect(r.graph, dc); err != nil {
		return r, 0, fmt.Errorf("detect: %w", err)
	}
	r.detectS = time.Since(d0).Seconds()
	took = time.Since(t0)

	if saveStart {
		if err = r.saveStartState(); err != nil {
			return r, 0, err
		}
	}

	t0 = time.Now()
	if r.svc, err = rslpa.NewService(r.det, def.opts); err != nil {
		return r, 0, fmt.Errorf("start service: %w", err)
	}
	if def.http || def.follower {
		r.srv = httptest.NewServer(r.svc.Handler())
	}
	if def.follower {
		r.feedPolls = new(atomic.Int64)
		r.folTransport = &http.Transport{}
		b0 := time.Now()
		r.fol, err = replica.New(replica.Options{
			WriterURL:      r.srv.URL,
			EvolutionDepth: def.opts.EvolutionDepth,
			Client: &http.Client{
				Timeout:   30 * time.Second,
				Transport: countingTransport{next: r.folTransport, feeds: r.feedPolls},
			},
		})
		if err != nil {
			return r, 0, fmt.Errorf("start follower: %w", err)
		}
		r.bootstrapMS = float64(time.Since(b0)) / float64(time.Millisecond)
		if fe, we := r.fol.Snapshot().Epoch(), r.svc.Snapshot().Epoch(); fe != we {
			return r, 0, fmt.Errorf("follower bootstrapped at epoch %d, writer at %d", fe, we)
		}
		r.folSrv = httptest.NewServer(r.fol.Handler())
	}
	return r, took + time.Since(t0), nil
}

func (r *rig) saveStartState() error {
	if err := os.MkdirAll(r.cfg.outDir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(r.cfg.outDir, "start-*.ckpt")
	if err != nil {
		return err
	}
	r.ckptPath = f.Name()
	if err := r.det.Save(f); err != nil {
		f.Close()
		return fmt.Errorf("save start state: %w", err)
	}
	return f.Close()
}

// close stops everything the set-up started and waits for it to end.
func (r *rig) close() {
	if r.folSrv != nil {
		r.folSrv.Close()
	}
	if r.fol != nil {
		r.fol.Close()
	}
	if r.folTransport != nil {
		r.folTransport.CloseIdleConnections()
	}
	if r.srv != nil {
		r.srv.Close()
	}
	switch {
	case r.svc != nil:
		r.svc.Close() // also closes the detector
	case r.det != nil:
		r.det.Close()
	}
	if r.ckptPath != "" {
		os.Remove(r.ckptPath)
	}
}
