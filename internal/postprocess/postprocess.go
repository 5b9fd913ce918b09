// Package postprocess extracts overlapping communities from rSLPA label
// sequences, implementing Section III-B of the paper.
//
// Because uniform picking keeps label *distributions* rather than a single
// dominant label, communities cannot be read off by per-vertex
// thresholding as in SLPA. Instead:
//
//  1. every edge (i, j) is weighted by the probability that a uniformly
//     drawn label from L_i equals one from L_j (computed by counting common
//     labels: w_ij = Σ_l f(l,i)·f(l,j) / (T+1)²);
//  2. a strong threshold τ₁ keeps high-similarity edges; each connected
//     component with ≥ 2 vertices of the filtered graph is a community.
//     τ₁ is chosen to maximize the information entropy of relative
//     community sizes (Equation 1);
//  3. a weak threshold τ₂ = minᵢ maxⱼ w_ij (Equation 2, the "no isolated
//     vertex" principle) attaches each leftover vertex to the communities
//     of its strong neighbors with w ≥ τ₂ — attachment to several
//     communities is what creates overlap.
//
// The paper enumerates τ₁ candidates on a fixed grid (0.001); this package
// provides that grid search for fidelity plus an exact sweep that inserts
// edges in descending weight order into a union-find while maintaining the
// entropy incrementally, evaluating *every* distinct weight in
// O(|E| log |E|) total.
package postprocess

import (
	"fmt"
	"math"
	"slices"

	"rslpa/internal/cover"
	"rslpa/internal/graph"
)

// LabelSeq returns the label sequence of a vertex; it is how this package
// reads the propagation result without depending on a concrete state type.
type LabelSeq func(v uint32) []uint32

// GraphView is the read-only graph access extraction needs. *graph.Graph
// implements it, and so does the streaming service's copy-on-write
// snapshot view — extraction never mutates the graph, so any frozen view
// works. Edges are emitted once each in the order of graph.Graph.ForEachEdge
// (ascending u over Vertices, Neighbors order, u < v), so equal graphs with
// equal neighbour order give bit-identical results across views.
type GraphView interface {
	NumVertices() int
	NumEdges() int
	// Vertices returns the present vertex IDs in ascending order.
	Vertices() []graph.VertexID
	// Neighbors returns v's neighbour list (nil for absent vertices); the
	// slice is read, never kept.
	Neighbors(v graph.VertexID) []graph.VertexID
}

// WeightMetric selects how the label-distribution similarity of two
// adjacent vertices is computed. The paper describes the weight as "the
// probability of getting the same label from Li and Lj ... obtained by just
// counting the common labels of two sequences"; the two readings of that
// sentence are both implemented.
type WeightMetric uint8

const (
	// Intersection counts common label occurrences (multiset
	// intersection): w = Σ_l min(f(l,i), f(l,j)) / (T+1). This equals
	// 1 minus the total-variation distance of the two empirical label
	// distributions; it approaches 1 for same-community vertices and is
	// the default (it reproduces the paper's reported NMI; see README.md).
	Intersection WeightMetric = iota
	// SameLabelProbability is the literal collision probability
	// w = Σ_l f(l,i)·f(l,j) / (T+1)², kept for ablation; it compresses
	// the within-community weights to ≈ ||p||² and yields measurably
	// worse extraction.
	SameLabelProbability
)

// WeightedEdge is an edge annotated with the label-distribution similarity
// of its endpoints.
type WeightedEdge struct {
	U, V uint32
	W    float64
}

// Config controls extraction. The zero value requests fully automatic
// thresholds with the exact sweep.
type Config struct {
	// Tau1 fixes the strong threshold; 0 selects it by entropy
	// maximization (Equation 1).
	Tau1 float64
	// Tau2 fixes the weak threshold; 0 selects minᵢ maxⱼ w_ij
	// (Equation 2).
	Tau2 float64
	// GridStep > 0 switches τ₁ selection to the paper's literal grid
	// enumeration with the given step (e.g. 0.001). 0 uses the exact
	// descending-weight sweep.
	GridStep float64
	// Metric selects the edge-weight definition (default Intersection).
	Metric WeightMetric
}

// Result is the outcome of community extraction.
type Result struct {
	Cover   *cover.Cover
	Tau1    float64
	Tau2    float64
	Entropy float64 // entropy of the strong communities at Tau1
	Strong  int     // number of strong communities (components ≥ 2)
	Weak    int     // number of weak (attached) memberships
}

// EncodeRuns sorts a copy of a label sequence and run-length encodes it as
// interleaved (label, count) words — the payload the distributed driver
// ships and CommonRuns merge-joins.
func EncodeRuns(seq []uint32) []uint32 {
	sorted := slices.Clone(seq)
	slices.Sort(sorted)
	runs := make([]uint32, 0, 8)
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		runs = append(runs, sorted[i], uint32(j-i))
		i = j
	}
	return runs
}

// CommonRuns merge-joins two interleaved (label, count) run lists into the
// integer numerator of the similarity weight: Σ_l min(f_a, f_b) for
// Intersection, Σ_l f_a·f_b for SameLabelProbability. It is the
// distributed driver's wire-side kernel and the reference the sequential
// dense-counter kernel (weights.go) is pinned to, which is what keeps the
// distributed weights bit-identical to the sequential ones.
func CommonRuns(a, b []uint32, metric WeightMetric) uint64 {
	var common uint64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i += 2
		case a[i] > b[j]:
			j += 2
		default:
			ca, cb := uint64(a[i+1]), uint64(b[j+1])
			if metric == SameLabelProbability {
				common += ca * cb
			} else if ca < cb {
				common += ca
			} else {
				common += cb
			}
			i += 2
			j += 2
		}
	}
	return common
}

// EdgeWeights computes w_ij for every edge of g from the label sequences
// using the given metric. Weights are in [0, 1]. Repeated callers should
// hold an ExtractScratch and use its EdgeWeights method, which reuses the
// kernel's tables instead of rebuilding them.
func EdgeWeights(g GraphView, labels LabelSeq, metric WeightMetric) []WeightedEdge {
	return new(ExtractScratch).EdgeWeights(g, labels, metric)
}

// Tau2Of computes Equation 2: the minimum over vertices (with at least one
// edge) of the maximum incident edge weight. Repeated callers should use
// an ExtractScratch's Tau2Of method, which keeps the per-vertex maxima in
// a reusable dense table instead of a map.
func Tau2Of(edges []WeightedEdge) float64 {
	return new(ExtractScratch).Tau2Of(edges)
}

// Extract runs the full post-processing pipeline on a graph and its label
// sequences. Repeated callers should hold an ExtractScratch and use its
// Extract method, which reuses every intermediate table between calls.
func Extract(g GraphView, labels LabelSeq, cfg Config) (*Result, error) {
	return new(ExtractScratch).Extract(g, labels, cfg)
}

// ExtractFromWeights is Extract for callers that already computed (or
// obtained from the distributed engine) the edge weights.
func ExtractFromWeights(g GraphView, edges []WeightedEdge, cfg Config) (*Result, error) {
	return new(ExtractScratch).ExtractFromWeights(g, edges, cfg)
}

// MaxWeight returns the maximum edge weight of the set (0 when empty) — the
// fallback ceiling the τ₁ selectors use when no edge reaches τ₂.
func MaxWeight(edges []WeightedEdge) float64 {
	max := 0.0
	for _, e := range edges {
		if e.W > max {
			max = e.W
		}
	}
	return max
}

// ExtractFromForest assembles the final Result from a REDUCED edge set: any
// subset of the weighted edges that preserves connectivity at every
// threshold τ ≥ tau2 (a maximum-weight spanning forest is the minimal such
// subset; see ReduceForestBy), plus a separate attachment candidate list
// that must contain every edge with tau2 ≤ w < τ₁ (supersets are fine —
// strong-strong and sub-τ₂ entries are filtered here). tau2 is the already-resolved weak threshold and maxWeight
// the maximum weight over the FULL edge set (the selectors' fallback when
// nothing reaches τ₂). It produces bit-identical results to
// ExtractFromWeights on the full set: the τ₁ entropy sweep only observes
// component structure, which the reduction preserves, and the entropy is
// evaluated canonically (see selectTau1Sweep). This is the master half of
// the distributed post-processing: workers ship forests and candidates, the
// master assembles.
func ExtractFromForest(g GraphView, conn, attach []WeightedEdge, tau2, maxWeight float64, cfg Config) (*Result, error) {
	return new(ExtractScratch).extractFromForest(g, conn, attach, tau2, maxWeight, cfg)
}

func (sc *ExtractScratch) extractFromForest(g GraphView, conn, attach []WeightedEdge, tau2, maxWeight float64, cfg Config) (*Result, error) {
	res := &Result{}
	res.Tau2 = tau2

	// Dense re-indexing of the vertices present in the graph, in the
	// scratch's stamped table.
	ids := g.Vertices()
	index := sc.indexVertices(ids)
	n := len(ids)

	switch {
	case cfg.Tau1 != 0:
		res.Tau1 = cfg.Tau1
	case cfg.GridStep > 0:
		res.Tau1 = selectTau1Grid(conn, index, n, res.Tau2, maxWeight, cfg.GridStep)
	default:
		res.Tau1 = selectTau1Sweep(conn, index, n, res.Tau2, maxWeight)
	}
	if res.Tau1 < res.Tau2 {
		return nil, fmt.Errorf("postprocess: τ1=%.4f < τ2=%.4f", res.Tau1, res.Tau2)
	}

	// Strong communities: components (≥ 2 vertices) of the τ₁-filtered
	// graph.
	uf := NewUnionFind(n)
	for _, e := range conn {
		if e.W >= res.Tau1 {
			uf.Union(int(index(e.U)), int(index(e.V)))
		}
	}
	// Dense community id per vertex, -1 = isolated (reused scratch).
	if cap(sc.commOf) < n {
		sc.commOf = make([]int32, n)
	}
	commOf := sc.commOf[:n]
	for i := range commOf {
		commOf[i] = -1
	}
	nextID := int32(0)
	rootID := make(map[int]int32)
	for i := 0; i < n; i++ {
		if uf.SizeOf(i) < 2 {
			continue
		}
		root := uf.Find(i)
		id, ok := rootID[root]
		if !ok {
			id = nextID
			nextID++
			rootID[root] = id
		}
		commOf[i] = id
	}
	res.Strong = int(nextID)
	members := make([][]uint32, nextID)
	for i := 0; i < n; i++ {
		if id := commOf[i]; id >= 0 {
			members[id] = append(members[id], ids[i])
		}
	}
	res.Entropy = entropyOfSizes(members, n)

	// Weak attachment: isolated vertices join the communities of their
	// non-isolated neighbors with w ≥ τ₂ (possibly several — overlap).
	// Duplicate candidates are harmless: membership is deduplicated per
	// (vertex, community) pair.
	joins := make(map[int32][]int32) // dense vertex -> community ids
	for _, e := range attach {
		if e.W < res.Tau2 {
			continue
		}
		du, dv := index(e.U), index(e.V)
		cu, cv := commOf[du], commOf[dv]
		if cu < 0 && cv >= 0 {
			joins[du] = appendUnique(joins[du], cv)
		}
		if cv < 0 && cu >= 0 {
			joins[dv] = appendUnique(joins[dv], cu)
		}
	}
	for dv, comms := range joins {
		for _, id := range comms {
			members[id] = append(members[id], ids[dv])
			res.Weak++
		}
	}

	res.Cover = cover.New(len(members))
	for _, m := range members {
		res.Cover.Add(m)
	}
	return res, nil
}

func appendUnique(s []int32, x int32) []int32 {
	for _, v := range s {
		if v == x {
			return s
		}
	}
	return append(s, x)
}

func entropyOfSizes(members [][]uint32, n int) float64 {
	h := 0.0
	for _, m := range members {
		if len(m) < 2 {
			continue
		}
		p := float64(len(m)) / float64(n)
		h -= p * math.Log(p)
	}
	return h
}

// ChooseTau1 resolves the strong threshold for an already-reduced edge set:
// cfg.Tau1 when fixed, the grid enumeration when cfg.GridStep > 0, the
// exact sweep otherwise. n is |V| of the full graph, maxWeight the maximum
// over the FULL (unreduced) edge set. Because the entropy evaluation is
// canonical, the result does not depend on vertex indexing or edge order —
// the distributed master uses this on the tree-reduced forest to pick the
// identical τ₁ the sequential sweep picks on all edges.
func ChooseTau1(edges []WeightedEdge, n int, tau2, maxWeight float64, cfg Config) float64 {
	if cfg.Tau1 != 0 {
		return cfg.Tau1
	}
	indexMap := make(map[uint32]int32)
	next := int32(0)
	for _, e := range edges {
		if _, ok := indexMap[e.U]; !ok {
			indexMap[e.U] = next
			next++
		}
		if _, ok := indexMap[e.V]; !ok {
			indexMap[e.V] = next
			next++
		}
	}
	index := func(v uint32) int32 { return indexMap[v] }
	if cfg.GridStep > 0 {
		return selectTau1Grid(edges, index, n, tau2, maxWeight, cfg.GridStep)
	}
	return selectTau1Sweep(edges, index, n, tau2, maxWeight)
}

// sizeHist tracks the multiset of component sizes during an incremental
// union sweep and evaluates the size entropy canonically: summing −p·ln p
// over distinct sizes in ascending order makes the float result a pure
// function of the partition, independent of the merge history, the edge
// order, and the vertex indexing. That independence is what lets the
// distributed sweep (which sees a connectivity-preserving subset of the
// edges in a different order) select a bit-identical τ₁.
type sizeHist struct {
	count   map[int32]int32
	scratch []int32
}

func newSizeHist(n int) *sizeHist {
	return &sizeHist{count: map[int32]int32{1: int32(n)}}
}

// merge records that components of sizes a and b fused.
func (h *sizeHist) merge(a, b int32) {
	if h.count[a]--; h.count[a] == 0 {
		delete(h.count, a)
	}
	if h.count[b]--; h.count[b] == 0 {
		delete(h.count, b)
	}
	h.count[a+b]++
}

// entropy evaluates Equation 1 over the current partition of n vertices.
func (h *sizeHist) entropy(n float64) float64 {
	h.scratch = h.scratch[:0]
	for s := range h.count {
		if s >= 2 {
			h.scratch = append(h.scratch, s)
		}
	}
	slices.Sort(h.scratch)
	e := 0.0
	for _, s := range h.scratch {
		p := float64(s) / n
		e -= float64(h.count[s]) * p * math.Log(p)
	}
	return e
}

// entropyOfPartition evaluates the canonical size entropy of a completed
// union-find over n dense vertices (used by the grid enumeration).
func entropyOfPartition(uf *UnionFind, n int) float64 {
	sizes := make([]int32, 0, 16)
	counted := make(map[int]bool)
	for i := 0; i < n; i++ {
		root := uf.Find(i)
		if counted[root] {
			continue
		}
		counted[root] = true
		if s := uf.SizeOf(i); s >= 2 {
			sizes = append(sizes, int32(s))
		}
	}
	slices.Sort(sizes)
	h, fn := 0.0, float64(n)
	for _, s := range sizes {
		p := float64(s) / fn
		h -= p * math.Log(p)
	}
	return h
}

// selectTau1Sweep evaluates the community entropy at every distinct edge
// weight ≥ τ₂ by inserting edges in descending weight order into a
// union-find, maintaining the component-size multiset incrementally, and
// returns the weight maximizing the entropy (the largest such weight on
// ties). maxWeight is the maximum over the full edge set — the fallback
// when no edge reaches τ₂.
func selectTau1Sweep(edges []WeightedEdge, index func(uint32) int32, n int, tau2, maxWeight float64) float64 {
	sorted := make([]WeightedEdge, 0, len(edges))
	for _, e := range edges {
		if e.W >= tau2 {
			sorted = append(sorted, e)
		}
	}
	if len(sorted) == 0 {
		return math.Max(tau2, maxWeight)
	}
	// Tie order within a weight is irrelevant: the entropy is evaluated
	// once per distinct weight, after the whole group is inserted.
	slices.SortFunc(sorted, func(a, b WeightedEdge) int {
		switch {
		case a.W > b.W:
			return -1
		case a.W < b.W:
			return 1
		}
		return 0
	})

	uf := NewUnionFind(n)
	hist := newSizeHist(n)
	fn := float64(n)
	bestTau, bestH := sorted[0].W, math.Inf(-1)
	i := 0
	for i < len(sorted) {
		w := sorted[i].W
		for i < len(sorted) && sorted[i].W == w {
			e := sorted[i]
			a, b := int(index(e.U)), int(index(e.V))
			ra, rb := uf.Find(a), uf.Find(b)
			if ra != rb {
				hist.merge(int32(uf.SizeOf(ra)), int32(uf.SizeOf(rb)))
				uf.Union(ra, rb)
			}
			i++
		}
		// All edges with weight >= w inserted: entropy is H(τ₁ = w).
		if h := hist.entropy(fn); h > bestH {
			bestH, bestTau = h, w
		}
	}
	return bestTau
}

// selectTau1Grid is the paper's literal enumeration: τ₁ candidates from τ₂
// to max(w) in fixed steps, running connected components at each step.
func selectTau1Grid(edges []WeightedEdge, index func(uint32) int32, n int, tau2, maxWeight, step float64) float64 {
	maxW := math.Max(tau2, maxWeight)
	bestTau, bestH := maxW, math.Inf(-1)
	for tau := tau2; tau <= maxW+step/2; tau += step {
		uf := NewUnionFind(n)
		for _, e := range edges {
			if e.W >= tau {
				uf.Union(int(index(e.U)), int(index(e.V)))
			}
		}
		if h := entropyOfPartition(uf, n); h > bestH {
			bestH, bestTau = h, tau
		}
	}
	return bestTau
}
