package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rslpa"
	"rslpa/internal/obs"
	"rslpa/internal/replica"
)

// runServe starts the streaming detection service: detect (or resume from
// a checkpoint), then serve the HTTP front end until SIGINT/SIGTERM.
//
//	POST /edits        ingest edge edits (?wait=1 → apply before replying)
//	GET  /communities  current snapshot's overlapping communities
//	GET  /vertex/{v}   membership + degree of one vertex
//	GET  /stats        queue depth, epoch, batch/latency counters
//	GET  /healthz      liveness (+ latched checkpoint error, if any)
//	GET  /readyz       readiness: 503 once checkpointing is failing
//	GET  /feed         replication feed for followers (with -journal > 0)
//	GET  /checkpoint   bootstrap checkpoint for followers
//	GET  /events       community evolution events (with -evolution-depth > 0)
//	GET  /community/{id}/history  one lineage's retained life-cycle
//	GET  /evolution/state  serialized evolution baseline for followers
//	GET  /metrics      Prometheus text exposition
//	GET  /debug/batches  recent + slowest per-batch pipeline traces
//	GET  /version      build identity, start time, uptime
//
// With -debug-addr a second, private listener additionally serves the
// net/http/pprof profile endpoints (plus /metrics, /debug/batches and
// /version), kept off the public API listener.
//
// With -follow it instead runs a read-only follower of another rslpa
// server: bootstrap from the writer's checkpoint, tail its feed, and
// serve the read endpoints (no POST /edits) from local snapshots.
func runServe(args []string) {
	fs := flag.NewFlagSet("rslpa serve", flag.ExitOnError)
	// The -flush default stays a fixed interval, not group commit (0):
	// -checkpoint rewrites its file every -checkpoint-every batches,
	// however small, and group commit would run many more of them.
	var (
		graphPath = fs.String("graph", "", "edge list to detect on at startup (omit to start from an empty graph)")
		addr      = fs.String("addr", ":7463", "HTTP listen address")
		T         = fs.Int("T", 0, "propagation iterations (0 = 200; T ≤ 65535)")
		seed      = fs.Uint64("seed", 1, "PRNG seed")
		workers   = fs.Int("workers", 0, "BSP workers (0 = sequential)")
		tcp       = fs.Bool("tcp", false, "use loopback TCP transport between workers")
		batch     = fs.Int("batch", 512, "max net edits per update batch")
		flush     = fs.Duration("flush", 100*time.Millisecond, "max delay before a partial batch is applied (0 = group commit: a batch closes when the previous one is applied)")
		queue     = fs.Int("queue", 4096, "ingest queue capacity (edits); full queue blocks producers")
		ckpt      = fs.String("checkpoint", "", "checkpoint file; loaded at startup when present, rewritten while serving")
		ckptEvery = fs.Int("checkpoint-every", 16, "batches between on-disk checkpoints")
		journal   = fs.Int("journal", 1024, "batches retained for the follower feed (0 disables /feed and /checkpoint)")
		evoDepth  = fs.Int("evolution-depth", 0, "epochs of community evolution events retained (0 disables /events and /community/{id}/history)")
		follow    = fs.String("follow", "", "run as a read-only follower of this writer base URL")
		poll      = fs.Duration("poll", 50*time.Millisecond, "follower: feed poll interval when caught up")
		debugAddr = fs.String("debug-addr", "", "private listen address for pprof + /metrics (empty disables)")
		logFormat = fs.String("log-format", "text", "log output format: text or json")
	)
	fs.Parse(args)

	logger, err := newLogger(*logFormat)
	if err != nil {
		fatal(err)
	}

	if *follow != "" {
		runFollower(*follow, *addr, *poll, *evoDepth, *debugAddr, logger)
		return
	}

	det, resumed, err := openDetector(*graphPath, *ckpt, rslpa.Config{T: *T, Seed: *seed, Workers: *workers, TCP: *tcp})
	if err != nil {
		fatal(err)
	}
	svc, err := rslpa.NewService(det, rslpa.ServiceOptions{
		QueueCapacity:   *queue,
		MaxBatch:        *batch,
		FlushInterval:   *flush,
		CheckpointPath:  *ckpt,
		CheckpointEvery: *ckptEvery,
		JournalDepth:    *journal,
		EvolutionDepth:  *evoDepth,
		Logger:          logger,
	})
	if err != nil {
		det.Close()
		fatal(err)
	}
	sn := svc.Snapshot()
	mode := "detected"
	if resumed {
		mode = "resumed from checkpoint"
	}
	logger.Info("serve: listening",
		"addr", *addr,
		"vertices", sn.NumVertices(),
		"edges", sn.NumEdges(),
		"mode", mode,
		"version", obs.Build().Version)
	stopDebug := startDebugServer(*debugAddr, svc.DebugHandler(), logger)

	srv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	select {
	case err := <-errc:
		svc.Close()
		fatal(err)
	case <-ctx.Done():
	}
	logger.Info("serve: shutting down, draining queue and applying final batch")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(shutdownCtx)
	stopDebug(shutdownCtx)
	if err := svc.Close(); err != nil {
		fatal(err)
	}
	st := svc.Stats()
	logger.Info("serve: stopped",
		"epochs", st.Epoch,
		"applied_edits", st.AppliedEdits,
		"coalesced_edits", st.CoalescedEdits,
		"checkpoints", st.Checkpoints)
}

// newLogger builds the process logger writing to stderr in the requested
// format.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	case "text", "":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// startDebugServer starts the private pprof+metrics listener when addr is
// set, returning a shutdown func (a no-op when disabled).
func startDebugServer(addr string, h http.Handler, logger *slog.Logger) func(context.Context) {
	if addr == "" {
		return func(context.Context) {}
	}
	srv := &http.Server{Addr: addr, Handler: h}
	go func() {
		logger.Info("serve: debug listener up (pprof, /metrics, /debug/batches)", "addr", addr)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve: debug listener failed", "error", err)
		}
	}()
	return func(ctx context.Context) { srv.Shutdown(ctx) }
}

// runFollower serves the read tier: bootstrap from the writer's
// checkpoint, tail its feed, answer reads from local snapshots.
func runFollower(writerURL, addr string, poll time.Duration, evoDepth int, debugAddr string, logger *slog.Logger) {
	reg := obs.NewRegistry()
	ring := obs.NewTraceRing(0, 0)
	f, err := replica.New(replica.Options{
		WriterURL:      writerURL,
		PollInterval:   poll,
		EvolutionDepth: evoDepth,
		Obs:            reg,
		Trace:          ring,
		Logger:         logger,
	})
	if err != nil {
		fatal(fmt.Errorf("follow %s: %w", writerURL, err))
	}
	sn := f.Snapshot()
	logger.Info("serve: following",
		"writer", writerURL,
		"addr", addr,
		"vertices", sn.NumVertices(),
		"edges", sn.NumEdges(),
		"epoch", sn.Epoch(),
		"version", obs.Build().Version)
	stopDebug := startDebugServer(debugAddr, obs.DebugMux(reg, ring), logger)

	srv := &http.Server{Addr: addr, Handler: f.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	select {
	case err := <-errc:
		f.Close()
		fatal(err)
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(shutdownCtx)
	stopDebug(shutdownCtx)
	f.Close()
	st := f.Stats()
	logger.Info("serve: follower stopped",
		"follower_epoch", st.FollowerEpoch,
		"writer_epoch", st.WriterEpoch,
		"lag_batches", st.LagBatches,
		"batches_replayed", st.CatchupTotal,
		"rebootstraps", st.Rebootstraps)
}

// openDetector resumes from the checkpoint when one exists, otherwise
// detects on the start graph (or an empty one).
func openDetector(graphPath, ckpt string, cfg rslpa.Config) (*rslpa.Detector, bool, error) {
	if ckpt != "" {
		f, err := os.Open(ckpt)
		if err == nil {
			defer f.Close()
			det, err := rslpa.LoadDetector(f, cfg)
			if err != nil {
				return nil, false, fmt.Errorf("load checkpoint %s: %w", ckpt, err)
			}
			return det, true, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, false, err
		}
	}
	g := rslpa.NewGraph()
	if graphPath != "" {
		f, err := os.Open(graphPath)
		if err != nil {
			return nil, false, err
		}
		g, err = rslpa.ReadEdgeList(f)
		f.Close()
		if err != nil {
			return nil, false, err
		}
	}
	det, err := rslpa.Detect(g, cfg)
	return det, false, err
}
