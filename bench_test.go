// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section V) at laptop scale. Each bench corresponds to one experiment in
// README.md's reproduction section; `go run ./cmd/repro -exp <id>` prints
// the full series, while these targets make the same measurements available
// to `go test -bench`.
//
// Sizes are deliberately small so the whole suite runs in minutes; the
// repro command's flags raise them toward the paper's scale.
package rslpa_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"rslpa"
	"rslpa/internal/cluster"
	"rslpa/internal/complexity"
	"rslpa/internal/core"
	"rslpa/internal/dist"
	"rslpa/internal/dynamic"
	"rslpa/internal/graph"
	"rslpa/internal/lfr"
	"rslpa/internal/nmi"
	"rslpa/internal/postprocess"
	"rslpa/internal/slpa"
	"rslpa/internal/webgraph"
)

// Shared fixtures, built once: an LFR graph with ground truth and a
// web-graph substitute with a propagated base state.
var (
	fixOnce sync.Once
	fixLFR  *lfr.Result
	fixWeb  *graph.Graph
	fixBase *core.State // rSLPA state on fixWeb, T=100
)

const (
	benchLFRSize = 2000
	benchWebSize = 4000
	benchT       = 100
)

func fixtures(b *testing.B) {
	b.Helper()
	fixOnce.Do(func() {
		p := lfr.Default(benchLFRSize)
		p.AvgDeg, p.MaxDeg, p.On = 15, 50, benchLFRSize/10
		res, err := lfr.Generate(p)
		if err != nil {
			panic(err)
		}
		fixLFR = res
		g, err := webgraph.Generate(webgraph.Default(benchWebSize))
		if err != nil {
			panic(err)
		}
		fixWeb = g
		st, err := core.Run(g, core.Config{T: benchT, Seed: 1})
		if err != nil {
			panic(err)
		}
		fixBase = st
	})
}

// BenchmarkTable2WebGraphStats regenerates Table II: the statistics of the
// (substitute) web dataset.
func BenchmarkTable2WebGraphStats(b *testing.B) {
	fixtures(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := fixWeb.ComputeStats()
		if s.Vertices != benchWebSize {
			b.Fatal("bad stats")
		}
	}
}

// BenchmarkFig7aConvergence measures one convergence point (T=200 on the
// LFR fixture): propagation plus prefix extraction, the unit of work behind
// Figure 7a.
func BenchmarkFig7aConvergence(b *testing.B) {
	fixtures(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st, err := core.Run(fixLFR.Graph, core.Config{T: 200, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := postprocess.Extract(st.Graph(), st.Labels, postprocess.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// fig7Point is the shared unit of Figures 7b-7f: generate + detect with
// both algorithms + score. The b.Run subtests pin the swept parameter.
func fig7Point(b *testing.B, mutate func(*lfr.Params)) {
	p := lfr.Default(benchLFRSize)
	p.AvgDeg, p.MaxDeg, p.On = 15, 50, benchLFRSize/10
	mutate(&p)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i + 1)
		res, err := lfr.Generate(p)
		if err != nil {
			b.Fatal(err)
		}
		st, err := core.Run(res.Graph, core.Config{T: 200, Seed: p.Seed})
		if err != nil {
			b.Fatal(err)
		}
		pp, err := postprocess.Extract(st.Graph(), st.Labels, postprocess.Config{})
		if err != nil {
			b.Fatal(err)
		}
		sr, err := slpa.Run(res.Graph, slpa.Config{T: 100, Tau: 0.2, Seed: p.Seed})
		if err != nil {
			b.Fatal(err)
		}
		rs := nmi.Compare(pp.Cover, res.Truth, p.N)
		ss := nmi.Compare(sr.Cover, res.Truth, p.N)
		b.ReportMetric(rs, "rslpa-nmi")
		b.ReportMetric(ss, "slpa-nmi")
	}
}

func BenchmarkFig7bVaryN(b *testing.B) { fig7Point(b, func(p *lfr.Params) { p.N = benchLFRSize }) }
func BenchmarkFig7cVaryK(b *testing.B) {
	fig7Point(b, func(p *lfr.Params) { p.AvgDeg = 30; p.MaxDeg = 60 })
}
func BenchmarkFig7dVaryMu(b *testing.B) { fig7Point(b, func(p *lfr.Params) { p.Mu = 0.3 }) }
func BenchmarkFig7eVaryOm(b *testing.B) { fig7Point(b, func(p *lfr.Params) { p.Om = 4 }) }
func BenchmarkFig7fVaryOn(b *testing.B) { fig7Point(b, func(p *lfr.Params) { p.On = 3 * p.N / 10 }) }

// BenchmarkFig8StaticRuntimeSLPA measures the SLPA side of Figure 8 on the
// distributed engine: label propagation plus thresholding.
func BenchmarkFig8StaticRuntimeSLPA(b *testing.B) {
	fixtures(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng, err := cluster.New(cluster.Config{Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		d, err := dist.NewSLPA(eng, fixWeb, slpa.Config{T: benchT, Tau: 0.2, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Propagate(); err != nil {
			b.Fatal(err)
		}
		slpa.ExtractCover(fixWeb, d.Memories(), slpa.Config{T: benchT, Tau: 0.2})
		eng.Close()
	}
}

// BenchmarkFig8StaticRuntimeRSLPA measures the rSLPA side of Figure 8:
// label propagation (2x the iterations, per the paper) plus the full
// distributed post-processing.
func BenchmarkFig8StaticRuntimeRSLPA(b *testing.B) {
	fixtures(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng, err := cluster.New(cluster.Config{Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		d, err := dist.NewRSLPA(eng, fixWeb, core.Config{T: 2 * benchT, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Propagate(); err != nil {
			b.Fatal(err)
		}
		if _, err := dist.Postprocess(eng, d, postprocess.Config{}); err != nil {
			b.Fatal(err)
		}
		eng.Close()
	}
}

// BenchmarkPostprocessWireBytes measures the distributed post-processing on
// the fig8-scale LFR fixture and reports its wire cost next to the cost of
// the naive protocol it replaced (one fixed 17-byte message per label per
// boundary pair plus an all-to-master weight funnel).
func BenchmarkPostprocessWireBytes(b *testing.B) {
	fixtures(b)
	const workers = 4
	const T = 2 * benchT // rSLPA runs 2x the SLPA iterations, per the paper
	g := fixLFR.Graph

	// The replaced protocol (per-label shipping + all-to-master weight
	// funnel), modeled by the same helper the regression test uses.
	naive := dist.NaivePostprocessBytes(g, cluster.Partitioner{P: workers}, T)

	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng, err := cluster.New(cluster.Config{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		d, err := dist.NewRSLPA(eng, g, core.Config{T: T, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Propagate(); err != nil {
			b.Fatal(err)
		}
		if _, err := dist.Postprocess(eng, d, postprocess.Config{}); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(naive), "wire-bytes-before")
		b.ReportMetric(float64(d.LastPostprocess.Bytes), "wire-bytes-after")
		b.ReportMetric(float64(naive)/float64(d.LastPostprocess.Bytes), "reduction-x")
		eng.Close()
	}
}

// benchFig9 measures one Figure 9 point: incremental repair after a batch
// of the given size on the web fixture.
func benchFig9(b *testing.B, batchSize int) {
	fixtures(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := fixBase.Clone()
		batch, err := dynamic.Batch(st.Graph(), batchSize, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		stats := st.Update(batch)
		b.ReportMetric(float64(stats.Touched), "touched")
	}
}

func BenchmarkFig9IncrementalBatch100(b *testing.B)   { benchFig9(b, 100) }
func BenchmarkFig9IncrementalBatch1000(b *testing.B)  { benchFig9(b, 1000) }
func BenchmarkFig9IncrementalBatch10000(b *testing.B) { benchFig9(b, 10000) }

// BenchmarkFig9Scratch is Figure 9's from-scratch baseline: rerunning
// Algorithm 1 on the updated graph.
func BenchmarkFig9Scratch(b *testing.B) {
	fixtures(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(fixWeb, core.Config{T: benchT, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComplexityModel validates the Section IV-D cost model: the
// measured update volume against η̂ (reported as custom metrics).
func BenchmarkComplexityModel(b *testing.B) {
	fixtures(b)
	stats := fixWeb.ComputeStats()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := fixBase.Clone()
		batch, err := dynamic.Batch(st.Graph(), 1000, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		us := st.Update(batch)
		m := complexity.Model{V: stats.Vertices, E: stats.Edges, T: benchT, Md: us.Deleted, Ma: us.Inserted}
		b.ReportMetric(float64(us.Touched), "measured")
		b.ReportMetric(m.EtaHat(), "predicted")
	}
}

// BenchmarkAblationMessages reports the per-iteration message counts of
// both algorithms on the distributed engine (Section III-A's O(|V|) vs
// O(|E|) claim).
func BenchmarkAblationMessages(b *testing.B) {
	fixtures(b)
	const T = 5
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		engR, err := cluster.New(cluster.Config{Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		dr, err := dist.NewRSLPA(engR, fixWeb, core.Config{T: T, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := dr.Propagate(); err != nil {
			b.Fatal(err)
		}
		engS, err := cluster.New(cluster.Config{Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		ds, err := dist.NewSLPA(engS, fixWeb, slpa.Config{T: T, Tau: 0.2, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := ds.Propagate(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(dr.PropagateStats.Messages/T), "rslpa-msgs/iter")
		b.ReportMetric(float64(ds.PropagateStats.Messages/T), "slpa-msgs/iter")
		engR.Close()
		engS.Close()
	}
}

// BenchmarkAblationWeightMetric compares the two weight definitions'
// extraction quality (see README.md's post-processing notes).
func BenchmarkAblationWeightMetric(b *testing.B) {
	fixtures(b)
	st, err := core.Run(fixLFR.Graph, core.Config{T: 200, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, metric := range []postprocess.WeightMetric{postprocess.Intersection, postprocess.SameLabelProbability} {
			pp, err := postprocess.Extract(st.Graph(), st.Labels, postprocess.Config{Metric: metric})
			if err != nil {
				b.Fatal(err)
			}
			score := nmi.Compare(pp.Cover, fixLFR.Truth, benchLFRSize)
			if metric == postprocess.Intersection {
				b.ReportMetric(score, "intersection-nmi")
			} else {
				b.ReportMetric(score, "product-nmi")
			}
		}
	}
}

// BenchmarkAblationTauSweep compares the exact τ1 sweep with the paper's
// 0.001-grid enumeration.
func BenchmarkAblationTauSweep(b *testing.B) {
	fixtures(b)
	st, err := core.Run(fixLFR.Graph, core.Config{T: 200, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	edges := postprocess.EdgeWeights(st.Graph(), st.Labels, postprocess.Intersection)
	b.Run("ExactSweep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := postprocess.ExtractFromWeights(st.Graph(), edges, postprocess.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Grid0.001", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := postprocess.ExtractFromWeights(st.Graph(), edges, postprocess.Config{GridStep: 0.001}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Micro-benchmarks for the core building blocks.

func BenchmarkPropagateSequential(b *testing.B) {
	fixtures(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(fixWeb, core.Config{T: 20, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEdgeWeights(b *testing.B) {
	fixtures(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		postprocess.EdgeWeights(fixBase.Graph(), fixBase.Labels, postprocess.Intersection)
	}
}

func BenchmarkNMI(b *testing.B) {
	fixtures(b)
	st, err := core.Run(fixLFR.Graph, core.Config{T: 100, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	pp, err := postprocess.Extract(st.Graph(), st.Labels, postprocess.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nmi.Compare(pp.Cover, fixLFR.Truth, benchLFRSize)
	}
}

func BenchmarkLFRGenerate(b *testing.B) {
	p := lfr.Default(benchLFRSize)
	p.AvgDeg, p.MaxDeg, p.On = 15, 50, benchLFRSize/10
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i)
		if _, err := lfr.Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWebGraphGenerate(b *testing.B) {
	p := webgraph.Default(benchWebSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i + 1)
		if _, err := webgraph.Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdate sweeps batch size × T for the distributed incremental
// Update at P=4 on the web fixture. It reports the push schedule's actual
// supersteps (rounds-run = active levels + 2: the apply/repick round, the
// subscription round and one round per level with dirty slots) against the
// schedule's ceiling when every level is active (rounds-ceiling = T+2), and
// their ratio (ceiling-x): small batches dirty few levels and run far below
// the ceiling, large batches reach it. The CI bench-smoke job archives these
// counters as BENCH_update.json, so the rounds-per-Update trend is tracked
// per change.
func BenchmarkUpdate(b *testing.B) {
	fixtures(b)
	for _, T := range []int{50, 200} {
		for _, batchSize := range []int{2, 100} {
			b.Run(fmt.Sprintf("T=%d/batch=%d", T, batchSize), func(b *testing.B) {
				eng, err := cluster.New(cluster.Config{Workers: 4})
				if err != nil {
					b.Fatal(err)
				}
				defer eng.Close()
				d, err := dist.NewRSLPA(eng, fixWeb, core.Config{T: T, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				if err := d.Propagate(); err != nil {
					b.Fatal(err)
				}
				ceiling := T + 2
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					batch, err := dynamic.Batch(d.Graph(), batchSize, uint64(i+1))
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					stats, err := d.Update(batch)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(stats.RoundsRun), "rounds-run")
					b.ReportMetric(float64(stats.LevelsSkipped), "levels-skipped")
					b.ReportMetric(float64(ceiling), "rounds-ceiling")
					if stats.RoundsRun > 0 {
						b.ReportMetric(float64(ceiling)/float64(stats.RoundsRun), "ceiling-x")
					}
				}
			})
		}
	}
}

// BenchmarkCheckpointSaveLoad measures shard-parallel checkpointing at
// P=4 on the web fixture: save wall time (each worker encodes its shard
// concurrently, the master concatenates), checkpoint size, load wall time
// (records resharded through the loading engine's owner map), and the wire
// bytes the snapshot gather moved.
func BenchmarkCheckpointSaveLoad(b *testing.B) {
	fixtures(b)
	const workers = 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, err := cluster.New(cluster.Config{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		d, err := dist.NewRSLPA(eng, fixWeb, core.Config{T: benchT, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Propagate(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()

		var buf bytes.Buffer
		saveStart := time.Now()
		if err := d.Save(&buf); err != nil {
			b.Fatal(err)
		}
		saveMS := float64(time.Since(saveStart).Microseconds()) / 1000

		loadStart := time.Now()
		c, err := core.ReadCheckpoint(bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		eng2, err := cluster.New(cluster.Config{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dist.NewRSLPAFromCheckpoint(eng2, c); err != nil {
			b.Fatal(err)
		}
		loadMS := float64(time.Since(loadStart).Microseconds()) / 1000

		b.ReportMetric(saveMS, "save-ms")
		b.ReportMetric(loadMS, "load-ms")
		b.ReportMetric(float64(buf.Len()), "checkpoint-bytes")
		b.ReportMetric(float64(d.LastCheckpoint.Bytes), "gather-wire-bytes")
		eng2.Close()
		eng.Close()
	}
}

// The set-up yardstick's inputs, built once: an LFR 20 000 graph (the
// bench/ workloads' size) and a T = 200 checkpoint of it.
var (
	setupOnce  sync.Once
	setupGraph *graph.Graph
	setupCkpt  []byte
)

func setupFixture(b *testing.B) {
	b.Helper()
	setupOnce.Do(func() {
		res, err := lfr.Generate(lfr.Default(20000))
		if err != nil {
			panic(err)
		}
		setupGraph = res.Graph
		st, err := core.Run(setupGraph, core.Config{T: 200, Seed: 1})
		if err != nil {
			panic(err)
		}
		var buf bytes.Buffer
		if err := st.SaveCheckpoint(&buf); err != nil {
			panic(err)
		}
		setupCkpt = buf.Bytes()
	})
}

// BenchmarkSetup is the fixed work a service does before its first batch
// on LFR 20 000 / T 200: propagation on one core and on every core
// (rslpa.Detect runs the latter), and a follower's restore, which decodes
// an in-memory checkpoint and builds the State from it. The CI
// bench-smoke job archives these rows as BENCH_setup.json.
func BenchmarkSetup(b *testing.B) {
	setupFixture(b)
	cfg := rslpa.Config{T: 200, Seed: 1}
	for _, row := range []struct {
		name  string
		cores int
	}{{"detect/workers=1", 1}, {"detect/workers=gomaxprocs", 0}} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rslpa.DetectParallel(setupGraph, cfg, row.cores); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed())/1e6/float64(b.N), "ms/op")
		})
	}
	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c, err := core.ReadCheckpoint(bytes.NewReader(setupCkpt))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.BuildState(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed())/1e6/float64(b.N), "ms/op")
	})
}
