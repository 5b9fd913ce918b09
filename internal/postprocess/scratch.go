package postprocess

import (
	"math"

	"rslpa/internal/cover"
)

// ExtractScratch owns the reusable buffers of the extraction pipeline: the
// per-vertex label histograms and dense per-label counters of the weight
// kernel (weights.go), the per-vertex incident-weight maxima, the compact
// vertex index, and the weighted-edge buffer. A caller that extracts
// repeatedly against an evolving graph (the streaming service's per-epoch
// extraction) keeps one scratch and passes it through the method forms;
// the package-level functions allocate a private scratch per call.
//
// The per-vertex tables are dense slices keyed by raw vertex ID and
// validated by a generation stamp: a pass bumps the generation instead of
// clearing, entries from earlier passes are invisible, and the tables grow
// monotonically with the ID space. Results never alias scratch memory
// (covers copy their member lists), so a scratch may be pooled and reused
// for a different graph immediately after a call returns — but the edge
// slice returned by EdgeWeights and Reweigh is scratch-owned and only
// valid until the next use.
//
// A scratch must not be used concurrently; pool one per extraction.
type ExtractScratch struct {
	gen uint32 // current pass generation (0 = never used)

	idxGen []uint32
	idx    []int32 // compact index: position in the pass's vertex list

	// Weight kernel (weights.go).
	hists     []histRef  // per-vertex histogram location in chunks, stamped
	chunks    [][]uint32 // interleaved (label, count) runs, first-seen order
	chunkAt   int        // chunk being filled this pass
	chunkUsed int        // words of it in use
	build     []uint32   // per-label counter for histogram building; all zero between uses
	loaded    []uint32   // per-label counts of the row being weighed; all zero between rows
	dirtyGen  []uint32   // stamp: vertex is in the pass's dirty set
	own       WeightTable

	maxGen     []uint32
	maxW       []float64 // max incident edge weight per vertex
	maxTouched []uint32  // vertices with a valid maxW entry this pass

	edges  []WeightedEdge // EdgeWeights/Reweigh output buffer
	commOf []int32        // strong-community id per compact vertex
}

// bump starts a new pass over the stamped tables. On the
// once-in-4-billion uint32 wraparound every stamp table is hard-cleared so
// a stale stamp can never alias a live one.
func (sc *ExtractScratch) bump() uint32 {
	sc.gen++
	if sc.gen == 0 {
		clear(sc.idxGen)
		clear(sc.hists)
		clear(sc.dirtyGen)
		clear(sc.maxGen)
		sc.gen = 1
	}
	return sc.gen
}

// growTo extends s with zero values to cover n entries.
func growTo[T any](s []T, n int) []T {
	if n > len(s) {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// Tau2Of is the scratch-backed form of the package-level Tau2Of (Equation
// 2): the per-vertex maxima live in the scratch's dense table instead of a
// map.
func (sc *ExtractScratch) Tau2Of(edges []WeightedEdge) float64 {
	gen := sc.bump()
	sc.maxTouched = sc.maxTouched[:0]
	for _, e := range edges {
		sc.seeMax(e.U, e.W, gen)
		sc.seeMax(e.V, e.W, gen)
	}
	tau2 := math.Inf(1)
	for _, v := range sc.maxTouched {
		if sc.maxW[v] < tau2 {
			tau2 = sc.maxW[v]
		}
	}
	if math.IsInf(tau2, 1) {
		return 0
	}
	return tau2
}

func (sc *ExtractScratch) seeMax(v uint32, w float64, gen uint32) {
	sc.maxGen = growTo(sc.maxGen, int(v)+1)
	sc.maxW = growTo(sc.maxW, int(v)+1)
	if sc.maxGen[v] != gen {
		sc.maxGen[v] = gen
		sc.maxW[v] = w
		sc.maxTouched = append(sc.maxTouched, v)
		return
	}
	if w > sc.maxW[v] {
		sc.maxW[v] = w
	}
}

// indexVertices builds the pass's compact vertex index (ids[i] <-> i) in
// the scratch's stamped table and returns a lookup closure for it.
func (sc *ExtractScratch) indexVertices(ids []uint32) func(uint32) int32 {
	gen := sc.bump()
	maxID := 0
	for _, v := range ids {
		if int(v) >= maxID {
			maxID = int(v) + 1
		}
	}
	sc.idxGen = growTo(sc.idxGen, maxID)
	sc.idx = growTo(sc.idx, maxID)
	for i, v := range ids {
		sc.idxGen[v] = gen
		sc.idx[v] = int32(i)
	}
	return func(v uint32) int32 { return sc.idx[v] }
}

// Extract is the scratch-backed form of the package-level Extract: the full
// pipeline with every intermediate table reused from the scratch.
func (sc *ExtractScratch) Extract(g GraphView, labels LabelSeq, cfg Config) (*Result, error) {
	return sc.ExtractFromWeights(g, sc.EdgeWeights(g, labels, cfg.Metric), cfg)
}

// ExtractFromWeights is the scratch-backed form of the package-level
// ExtractFromWeights.
func (sc *ExtractScratch) ExtractFromWeights(g GraphView, edges []WeightedEdge, cfg Config) (*Result, error) {
	if g.NumVertices() == 0 {
		return &Result{Cover: cover.New(0)}, nil
	}
	tau2 := cfg.Tau2
	if tau2 == 0 {
		tau2 = sc.Tau2Of(edges)
	}
	return sc.extractFromForest(g, edges, edges, tau2, MaxWeight(edges), cfg)
}
