// Package rslpa detects overlapping communities on dynamic graphs, with
// optional distributed execution. It implements rSLPA — the randomized
// Speaker-Listener Label Propagation Algorithm of Jian, Lian and Chen,
// "On Efficiently Detecting Overlapping Communities over Distributed
// Dynamic Graphs" (ICDE 2018) — together with the SLPA baseline, the LFR
// benchmark generator, the overlapping-cover NMI metric, and a BSP cluster
// runtime the algorithms run on.
//
// # Quick start
//
//	g := rslpa.NewGraph()
//	g.AddEdge(0, 1) // ... build or rslpa.ReadEdgeList(...)
//
//	det, err := rslpa.Detect(g, rslpa.Config{Seed: 1})
//	if err != nil { ... }
//	defer det.Close()
//
//	res, err := det.Communities()   // overlapping communities
//
//	// The graph changed: apply the batch incrementally instead of
//	// re-running detection from scratch.
//	det.Update([]rslpa.Edit{{Op: rslpa.Insert, U: 7, V: 9}})
//	res, err = det.Communities()
//
// Detection runs in-process on every core by default; set Config.Workers > 1
// to run on the partitioned BSP engine (Config.TCP selects real loopback
// sockets instead of in-memory exchange). Results are identical bit-for-bit
// across all execution modes for a given seed.
package rslpa

import (
	"io"
	"sync"

	"rslpa/internal/cluster"
	"rslpa/internal/core"
	"rslpa/internal/cover"
	"rslpa/internal/dist"
	"rslpa/internal/graph"
	"rslpa/internal/lfr"
	"rslpa/internal/nmi"
	"rslpa/internal/postprocess"
	"rslpa/internal/slpa"
	"rslpa/internal/webgraph"
)

// Graph is a dynamic undirected binary graph (alias of the internal
// implementation so that the full graph API is available to users).
type Graph = graph.Graph

// Edit is one edge insertion or deletion in an update batch.
type Edit = graph.Edit

// Op is the edit operation type.
type Op = graph.Op

// Edit operations.
const (
	Insert = graph.Insert
	Delete = graph.Delete
)

// Cover is a set of (possibly overlapping) communities.
type Cover = cover.Cover

// NewGraph returns an empty graph.
func NewGraph() *Graph { return graph.New() }

// ReadEdgeList parses a whitespace-separated edge list; see the Graph
// documentation for the accepted format.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// WeightMetric selects the edge-similarity definition used by community
// extraction; see the post-processing notes in README.md.
type WeightMetric = postprocess.WeightMetric

// Weight metrics.
const (
	// Intersection (default) counts common label occurrences.
	Intersection = postprocess.Intersection
	// SameLabelProbability is the literal label-collision probability.
	SameLabelProbability = postprocess.SameLabelProbability
)

// Config configures rSLPA detection.
type Config struct {
	// T is the number of label propagation iterations; 0 means the
	// paper's default of 200. At most MaxT.
	T int
	// Seed drives all randomness; a given (graph, Config) is fully
	// deterministic, including across Workers/TCP settings.
	Seed uint64
	// Tau1 and Tau2 fix the extraction thresholds; 0 selects them
	// automatically (entropy maximization and the min-max rule).
	Tau1, Tau2 float64
	// Metric selects the edge-weight definition (default Intersection).
	Metric WeightMetric
	// Workers > 1 runs detection on a partitioned BSP engine with that
	// many workers; 0 or 1 runs it in-process, on every core.
	Workers int
	// TCP moves inter-worker traffic over loopback TCP sockets instead
	// of in-memory queues (only meaningful with Workers > 1).
	TCP bool
}

// MaxT is the largest Config.T detection accepts: the detector stores pick
// positions and iterations as 16-bit values.
const MaxT = core.MaxT

// TRangeError is the error Detect returns for a Config.T outside [1, MaxT].
type TRangeError = core.TRangeError

func (c Config) withDefaults() Config {
	if c.T == 0 {
		c.T = core.DefaultT
	}
	return c
}

// Result is the outcome of community extraction.
type Result struct {
	// Communities is the detected cover.
	Communities *Cover
	// Tau1 and Tau2 are the thresholds used (selected automatically
	// unless fixed in Config).
	Tau1, Tau2 float64
	// Strong is the number of strongly connected communities; Weak is
	// the number of weak (overlap-creating) memberships added to them.
	Strong, Weak int
	// Entropy is the community-size information entropy at Tau1.
	Entropy float64
}

// UpdateStats reports the work an incremental update performed; Touched is
// the η quantity of the paper's complexity analysis.
type UpdateStats = core.UpdateStats

// Detector holds the label propagation state for one graph and keeps it
// maintainable under graph updates. Create with Detect; always Close a
// detector configured with Workers > 1.
type Detector struct {
	cfg Config
	seq *core.State
	eng *cluster.Engine
	dst *dist.RSLPA

	closeOnce sync.Once
	closeErr  error
}

// Detect runs rSLPA label propagation (Algorithm 1) on g and returns a
// Detector from which communities can be extracted. The graph is copied;
// apply subsequent changes through Update.
//
// With Config.Workers <= 1 the detector is in-process and propagation
// splits each level's vertices across every core (GOMAXPROCS); see
// DetectParallel to choose the core count. The result is bit-identical at
// any core count.
func Detect(g *Graph, cfg Config) (*Detector, error) {
	if cfg.Workers <= 1 {
		return DetectParallel(g, cfg, 0)
	}
	cfg = cfg.withDefaults()
	if err := core.CheckT(cfg.T); err != nil {
		return nil, err // before a distributed engine is started
	}
	kind := cluster.Local
	if cfg.TCP {
		kind = cluster.TCP
	}
	eng, err := cluster.New(cluster.Config{Workers: cfg.Workers, Transport: kind})
	if err != nil {
		return nil, err
	}
	dst, err := dist.NewRSLPA(eng, g, core.Config{T: cfg.T, Seed: cfg.Seed})
	if err != nil {
		eng.Close()
		return nil, err
	}
	if err := dst.Propagate(); err != nil {
		eng.Close()
		return nil, err
	}
	return &Detector{cfg: cfg, eng: eng, dst: dst}, nil
}

// Update applies a batch of edge edits and incrementally repairs the
// detection state (Correction Propagation, Algorithm 2). The resulting
// state is distributed exactly as a fresh detection on the updated graph.
//
// The batch is canonicalized first (graph.Canonicalize): self-loops and
// no-op edits are dropped, repeated or mutually cancelling edits of the
// same edge are coalesced, and the surviving edits are applied in a fixed
// edge-key order. The applied update is therefore a pure function of the
// batch's net effect — the same semantics the streaming Service gives
// coalesced producer traffic — so two callers whose batches have equal net
// effects drive the detector to bit-identical states. UpdateStats counts
// the canonical batch (absorbed edits are not counted).
func (d *Detector) Update(batch []Edit) (UpdateStats, error) {
	return d.applyCanonical(graph.Canonicalize(d.Graph(), batch))
}

// applyCanonical dispatches an already-canonical batch to the underlying
// engine. The streaming Service calls it directly: its coalescer emits
// canonical batches, so re-canonicalizing would be a no-op.
func (d *Detector) applyCanonical(batch []Edit) (UpdateStats, error) {
	if d.seq != nil {
		return d.seq.Update(batch), nil
	}
	return d.dst.Update(batch)
}

// Epoch returns the number of update batches applied so far. A detector
// loaded from a checkpoint resumes its saved epoch, so epochs are
// comparable across restarts (and across execution modes: both engines
// count identically).
func (d *Detector) Epoch() uint64 {
	if d.seq != nil {
		return d.seq.Epoch()
	}
	return d.dst.Epoch()
}

// EngineStats reports the BSP cluster engine's cumulative wire traffic
// (supersteps, messages, bytes) for distributed detectors; ok is false
// for sequential ones, whose wire traffic is definitionally zero. It
// implements the streaming service's EngineStatsProvider, so a Service
// over a Workers>1 detector surfaces these in /stats and /metrics.
func (d *Detector) EngineStats() (rounds, messages, bytes int64, ok bool) {
	if d.eng == nil {
		return 0, 0, 0, false
	}
	st := d.eng.Stats()
	return st.Rounds, st.Messages, st.Bytes, true
}

// Graph returns the detector's current graph. The graph is owned by the
// detector: callers must not mutate it (apply changes through Update) and
// must not read it concurrently with Update.
func (d *Detector) Graph() *Graph {
	if d.seq != nil {
		return d.seq.Graph()
	}
	return d.dst.Graph()
}

// Communities extracts the current overlapping communities (Section III-B
// post-processing).
func (d *Detector) Communities() (*Result, error) {
	pcfg := postprocess.Config{Tau1: d.cfg.Tau1, Tau2: d.cfg.Tau2, Metric: d.cfg.Metric}
	var (
		res *postprocess.Result
		err error
	)
	if d.seq != nil {
		res, err = postprocess.Extract(d.seq.Graph(), d.seq.Labels, pcfg)
	} else {
		res, err = dist.Postprocess(d.eng, d.dst, pcfg)
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		Communities: res.Cover,
		Tau1:        res.Tau1,
		Tau2:        res.Tau2,
		Strong:      res.Strong,
		Weak:        res.Weak,
		Entropy:     res.Entropy,
	}, nil
}

// Labels returns the raw label sequence of a vertex (length T+1), or nil
// for absent vertices — useful for custom post-processing.
func (d *Detector) Labels(v uint32) []uint32 {
	if d.seq != nil {
		return d.seq.Labels(v)
	}
	return d.dst.Labels(v)
}

// Close releases the cluster resources of a distributed detector. It is a
// no-op for sequential detectors. Close is idempotent and safe to call
// from multiple goroutines — every call returns the error of the one
// release that actually ran — and it may race with in-flight Labels
// queries (which never touch the cluster transport). It must not race
// with Update or Communities on a distributed detector.
func (d *Detector) Close() error {
	d.closeOnce.Do(func() {
		if d.eng != nil {
			d.closeErr = d.eng.Close()
		}
	})
	return d.closeErr
}

// SLPAConfig configures the SLPA baseline.
type SLPAConfig struct {
	// T is the iteration count; 0 means the original paper's 100.
	T int
	// Tau is the membership threshold; 0 means 0.2 (the paper's value).
	Tau float64
	// Seed drives all randomness.
	Seed uint64
}

// DetectSLPA runs the Speaker-Listener LPA baseline and returns its cover.
func DetectSLPA(g *Graph, cfg SLPAConfig) (*Cover, error) {
	if cfg.T == 0 {
		cfg.T = slpa.DefaultT
	}
	if cfg.Tau == 0 {
		cfg.Tau = slpa.DefaultTau
	}
	res, err := slpa.Run(g, slpa.Config{T: cfg.T, Tau: cfg.Tau, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return res.Cover, nil
}

// NMI computes the overlapping Normalized Mutual Information (LFK variant)
// between two covers over a graph of n vertices; 1 means identical.
func NMI(a, b *Cover, n int) float64 { return nmi.Compare(a, b, n) }

// LFRParams parameterizes the LFR benchmark generator.
type LFRParams = lfr.Params

// DefaultLFR returns the paper's default LFR setting for n vertices.
func DefaultLFR(n int) LFRParams { return lfr.Default(n) }

// GenerateLFR builds an LFR benchmark graph with planted overlapping
// ground-truth communities.
func GenerateLFR(p LFRParams) (*Graph, *Cover, error) {
	res, err := lfr.Generate(p)
	if err != nil {
		return nil, nil, err
	}
	return res.Graph, res.Truth, nil
}

// WebGraphParams parameterizes the scale-free web-graph generator used as
// the stand-in for the paper's eu-2015-tpd dataset.
type WebGraphParams = webgraph.Params

// DefaultWebGraph returns web-crawl-shaped parameters for n vertices.
func DefaultWebGraph(n int) WebGraphParams { return webgraph.Default(n) }

// GenerateWebGraph builds the web-graph substitute.
func GenerateWebGraph(p WebGraphParams) (*Graph, error) { return webgraph.Generate(p) }

// Version is the library version.
const Version = "1.0.0"
