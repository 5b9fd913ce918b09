package stream

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"
	"time"

	"rslpa/internal/core"
	"rslpa/internal/dynamic"
	"rslpa/internal/graph"
	"rslpa/internal/lfr"
	"rslpa/internal/metrics"
	"rslpa/internal/obs"
	"rslpa/internal/postprocess"
)

// BenchmarkStreamServe measures the serving workload end to end: four
// producers push an edit stream through the bounded queue while four
// readers issue snapshot queries, and the run reports ingest throughput
// plus the p50/p99 query latency observed *during* sustained updates.
func BenchmarkStreamServe(b *testing.B) {
	const (
		producers = 4
		readers   = 4
		nVertices = 500
		editCount = 4000
	)
	params := lfr.Default(nVertices)
	params.AvgDeg, params.MaxDeg = 10, 30
	gen, err := lfr.Generate(params)
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer() // per-iteration setup is not part of the serving cost
		st, err := core.Run(gen.Graph, core.Config{T: 50, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		svc, err := New(seqDet{st}, Options{MaxBatch: 256, FlushInterval: 5 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}

		// Pre-generate the stream so generation cost stays out of the run.
		evolving := gen.Graph.Clone()
		batches, err := dynamic.Stream(evolving, editCount/8, 8, 77)
		if err != nil {
			b.Fatal(err)
		}
		var edits []graph.Edit
		for _, batch := range batches {
			edits = append(edits, batch...)
		}

		var (
			wg        sync.WaitGroup
			stop      = make(chan struct{})
			latencies = make([][]time.Duration, readers)
		)
		for r := range readers {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				lat := make([]time.Duration, 0, 4096)
				v := uint32(r)
				for i := 0; ; i++ {
					select {
					case <-stop:
						latencies[r] = lat
						return
					default:
					}
					t0 := time.Now()
					sn := svc.Snapshot()
					sn.Labels(v % uint32(nVertices))
					if i%64 == 0 {
						sn.Membership(v % uint32(nVertices))
					}
					lat = append(lat, time.Since(t0))
					v += 7
				}
			}(r)
		}

		b.StartTimer()
		start := time.Now()
		var pwg sync.WaitGroup
		per := len(edits) / producers
		for p := range producers {
			lo, hi := p*per, (p+1)*per
			if p == producers-1 {
				hi = len(edits)
			}
			pwg.Add(1)
			go func(chunk []graph.Edit) {
				defer pwg.Done()
				for _, e := range chunk {
					svc.Submit(e)
				}
			}(edits[lo:hi])
		}
		pwg.Wait()
		if err := svc.Drain(); err != nil {
			b.Fatal(err)
		}
		ingest := time.Since(start)
		close(stop)
		wg.Wait()
		b.StopTimer()

		var all []time.Duration
		for _, lat := range latencies {
			all = append(all, lat...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		stats := svc.Stats()
		svc.Close()

		b.ReportMetric(float64(len(edits))/ingest.Seconds(), "ingest-edits/sec")
		if len(all) > 0 {
			b.ReportMetric(float64(metrics.Quantile(all, 0.50).Nanoseconds()), "p50-query-ns")
			b.ReportMetric(float64(metrics.Quantile(all, 0.99).Nanoseconds()), "p99-query-ns")
			b.ReportMetric(float64(len(all)), "queries")
		}
		b.ReportMetric(float64(stats.Batches), "batches")
	}
}

// BenchmarkObsOverhead pins the cost of the observability layer on the
// batch path: the same Submit+Drain workload through an instrumented
// service (metrics registry + trace ring, the `rslpa serve` default) and
// through a bare one. The two sub-benchmark rows land in BENCH_obs.json;
// the instrumented ns/op must stay within a few percent of noop — the
// hot path adds a handful of atomics and one trace Record per batch,
// never per edit.
func BenchmarkObsOverhead(b *testing.B) {
	run := func(b *testing.B, opts Options) {
		st := ringState(b, 10_000, 20, 3)
		svc, err := New(seqDet{st}, opts)
		if err != nil {
			b.Fatal(err)
		}
		defer svc.Close()
		// A small apply batch and its inverse: alternating keeps the graph
		// (and therefore per-iteration work) in steady state.
		apply := []graph.Edit{
			{Op: graph.Insert, U: 10, V: 5010},
			{Op: graph.Insert, U: 2500, V: 7510},
		}
		invert := []graph.Edit{
			{Op: graph.Delete, U: 10, V: 5010},
			{Op: graph.Delete, U: 2500, V: 7510},
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := range b.N {
			batch := apply
			if i%2 == 1 {
				batch = invert
			}
			if err := svc.Submit(batch...); err != nil {
				b.Fatal(err)
			}
			if err := svc.Drain(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(svc.Stats().Batches), "batches")
	}
	b.Run("instrumented", func(b *testing.B) {
		run(b, Options{
			MaxBatch: 256, FlushInterval: time.Hour,
			Obs:   obs.NewRegistry(),
			Trace: obs.NewTraceRing(0, 0),
		})
	})
	b.Run("noop", func(b *testing.B) {
		run(b, Options{MaxBatch: 256, FlushInterval: time.Hour})
	})
}

// BenchmarkSnapshotPublish measures the copy-on-write publication path in
// isolation across graph size × batch size: apply one canonical batch,
// then time republishing the resulting snapshot from its predecessor.
// Reported metrics pin the tentpole economics — shards republished versus
// total shards, and the cost of the full clone the COW path replaces —
// and the CI smoke emits them as BENCH_snapshot.json. The ring rows run
// at T = 20; the lfr rows run the repository benchmark's graph and T
// (LFR 20 000, T = 200), where a label copy would cost 16 MB per publish.
func BenchmarkSnapshotPublish(b *testing.B) {
	publish := func(b *testing.B, st *core.State, edits []graph.Edit) {
		work := st.Clone()
		wdet := seqDet{work}
		prev := newSnapshot(0, wdet, postprocess.Config{}, core.UpdateStats{})
		stats := work.Update(graph.Canonicalize(work.Graph(), edits))

		var sn *Snapshot
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			sn = nextSnapshot(prev, wdet, stats.Dirty, stats)
		}
		b.StopTimer()
		f0 := time.Now()
		newSnapshot(sn.Epoch(), wdet, postprocess.Config{}, stats)
		b.ReportMetric(float64(time.Since(f0).Microseconds()), "fullclone-us")
		b.ReportMetric(float64(sn.ShardsRepublished()), "shards-republished")
		b.ReportMetric(float64(sn.NumShards()), "shards-total")
	}
	for _, n := range []uint32{10_000, 100_000} {
		st := ringState(b, n, 20, 3)
		for _, batchSize := range []int{2, 64, 512} {
			b.Run(fmt.Sprintf("n=%d/batch=%d", n, batchSize), func(b *testing.B) {
				// One batch of inserts spread over the ring: endpoints
				// land in batchSize distinct regions, the worst case for
				// a given batch size.
				var edits []graph.Edit
				for i := 0; i < batchSize; i++ {
					u := uint32(i) * (n / uint32(batchSize))
					edits = append(edits, graph.Edit{Op: graph.Insert, U: u, V: (u + n/2) % n})
				}
				publish(b, st, edits)
			})
		}
	}
	gen, err := lfr.Generate(lfr.Default(20_000))
	if err != nil {
		b.Fatal(err)
	}
	st, err := core.Run(gen.Graph, core.Config{T: core.DefaultT, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, batchSize := range []int{8, 200} {
		b.Run(fmt.Sprintf("lfr=20000/T=200/batch=%d", batchSize), func(b *testing.B) {
			// Half deletions, half insertions, drawn uniformly.
			edits, err := dynamic.Batch(st.Graph(), batchSize, uint64(batchSize))
			if err != nil {
				b.Fatal(err)
			}
			publish(b, st, edits)
		})
	}
}

// BenchmarkExtractIncremental measures community extraction on the
// repository benchmark's graph (LFR 20 000, T = 200): a cold full
// extraction, and the extraction of the epoch after a 200-edit and after a
// 2-edit batch with the weight table anchored at the epoch before. Update
// and publish run untimed between iterations; batches alternate between a
// set of edits and its inverse so the graph stays in steady state. The
// reported edges/reweighted pair is the reuse ratio, and the CI smoke
// emits the rows as BENCH_extract.json.
func BenchmarkExtractIncremental(b *testing.B) {
	gen, err := lfr.Generate(lfr.Default(20_000))
	if err != nil {
		b.Fatal(err)
	}
	st, err := core.Run(gen.Graph, core.Config{T: 200, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	det := seqDet{st}
	report := func(b *testing.B, sn *Snapshot) {
		b.ReportMetric(float64(sn.work.edges), "edges")
		b.ReportMetric(float64(sn.work.reweighted), "reweighted")
	}

	b.Run("cold", func(b *testing.B) {
		var sn *Snapshot
		b.ReportAllocs()
		for range b.N {
			b.StopTimer()
			sn = newSnapshot(0, det, postprocess.Config{}, core.UpdateStats{})
			sn.ext = newExtraction(nil)
			b.StartTimer()
			if _, err := sn.Communities(); err != nil {
				b.Fatal(err)
			}
		}
		report(b, sn)
	})

	for _, size := range []int{200, 2} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			// Half the batch inserts absent edges, half deletes present
			// ones; the inverse batch undoes it.
			rng := rand.New(rand.NewPCG(7, uint64(size)))
			g := st.Graph()
			n := uint32(g.NumVertices())
			var apply, invert []graph.Edit
			for len(apply) < size/2 {
				u, v := rng.Uint32N(n), rng.Uint32N(n)
				if u != v && !g.HasEdge(u, v) {
					apply = append(apply, graph.Edit{Op: graph.Insert, U: u, V: v})
					invert = append(invert, graph.Edit{Op: graph.Delete, U: u, V: v})
				}
			}
			for len(apply) < size {
				u := rng.Uint32N(n)
				if nb := g.Neighbors(u); len(nb) > 0 {
					v := nb[rng.IntN(len(nb))]
					apply = append(apply, graph.Edit{Op: graph.Delete, U: u, V: v})
					invert = append(invert, graph.Edit{Op: graph.Insert, U: u, V: v})
				}
			}

			prev := newSnapshot(0, det, postprocess.Config{}, core.UpdateStats{})
			prev.ext = newExtraction(nil)
			if _, err := prev.Communities(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				b.StopTimer()
				batch := apply
				if i%2 == 1 {
					batch = invert
				}
				stats := st.Update(graph.Canonicalize(g, batch))
				next := nextSnapshot(prev, det, stats.Dirty, stats)
				b.StartTimer()
				if _, err := next.Communities(); err != nil {
					b.Fatal(err)
				}
				prev = next
			}
			b.StopTimer()
			report(b, prev)
			if b.N%2 == 1 { // leave the shared state as it was found
				st.Update(graph.Canonicalize(g, invert))
			}
		})
	}
}
