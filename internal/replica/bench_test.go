package replica

import (
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"rslpa/internal/core"
	"rslpa/internal/dynamic"
	"rslpa/internal/lfr"
	"rslpa/internal/metrics"
	"rslpa/internal/stream"
)

// BenchmarkReplicaServe is the read-tier speed pin: a follower bootstraps
// cold from the writer's checkpoint, catches up over the feed, and then
// serves 4 concurrent readers while it keeps tailing a live writer. It
// reports
//
//	catchup-ms    — cold bootstrap + feed replay until epoch parity
//	p50-query-ns  — snapshot query latency on the follower under load
//	p99-query-ns  — nearest-rank, via metrics.Quantile
//	queries       — total follower queries timed
func BenchmarkReplicaServe(b *testing.B) {
	p := lfr.Default(1000)
	p.Seed = 41
	res, err := lfr.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	st, err := core.Run(res.Graph, core.Config{T: 30, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	maxID := uint32(res.Graph.MaxVertexID())

	// The writer encodes its checkpoint at the head on request, so
	// catchup-ms is that encode plus the follower's decode and build; the
	// feed backlog is whatever the writer published meanwhile.
	w := newWriter(b, st, stream.Options{
		MaxBatch: 1 << 20, FlushInterval: time.Hour,
		JournalDepth: 1 << 14,
	})
	srv := newBenchServer(b, w)
	evolving := res.Graph.Clone()
	prologue, err := dynamic.Stream(evolving, 100, 32, 5)
	if err != nil {
		b.Fatal(err)
	}
	applyStream(b, w, prologue)

	b.ResetTimer()
	var catchup time.Duration
	var all []time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		f, err := New(Options{
			WriterURL: srv, PollInterval: time.Millisecond,
			RetryMin: time.Millisecond, RetryMax: 50 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		target := w.Stats().Epoch
		waitFollowerEpoch(b, f, target)
		catchup = time.Since(t0)

		// Live tail + concurrent reads: a producer keeps the writer (and
		// therefore the follower) churning while 4 readers time follower
		// snapshot queries.
		tail, err := dynamic.Stream(evolving, 100, 8, uint64(100+i))
		if err != nil {
			b.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			applyStream(b, w, tail)
		}()

		const readers, queriesPer = 4, 500
		lat := make([][]time.Duration, readers)
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				lats := make([]time.Duration, 0, queriesPer)
				for q := 0; q < queriesPer; q++ {
					v := uint32(r*queriesPer+q) % maxID
					q0 := time.Now()
					sn := f.Snapshot()
					sn.Labels(v)
					if _, err := sn.Membership(v); err != nil {
						b.Error(err)
						return
					}
					lats = append(lats, time.Since(q0))
				}
				lat[r] = lats
			}(r)
		}
		wg.Wait()
		<-done
		waitFollowerEpoch(b, f, w.Stats().Epoch)
		f.Close()
		all = all[:0]
		for _, l := range lat {
			all = append(all, l...)
		}
	}
	b.StopTimer()
	slices.Sort(all)
	b.ReportMetric(float64(catchup.Milliseconds()), "catchup-ms")
	if len(all) > 0 {
		b.ReportMetric(float64(metrics.Quantile(all, 0.50).Nanoseconds()), "p50-query-ns")
		b.ReportMetric(float64(metrics.Quantile(all, 0.99).Nanoseconds()), "p99-query-ns")
		b.ReportMetric(float64(len(all)), "queries")
	}
}

// newBenchServer serves the writer's handler for the benchmark's
// lifetime and returns its base URL.
func newBenchServer(b *testing.B, w *stream.Service) string {
	b.Helper()
	srv := httptest.NewServer(w.Handler())
	b.Cleanup(srv.Close)
	return srv.URL
}
