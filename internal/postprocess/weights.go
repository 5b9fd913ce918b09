package postprocess

import "slices"

// This file is the edge-weight stage: the kernel that turns two label rows
// into the integer numerator of their similarity, and the table that keeps
// those numerators between extractions so a later extraction re-weighs only
// what changed.
//
// The kernel works on per-vertex label histograms held as (label, count)
// runs in first-seen order — built by one pass over the row through a dense
// per-label counter, no sort. To weigh row u it scatters u's counts into a
// second dense counter once and, for each neighbour, sums min(count, loaded)
// (or the product, for SameLabelProbability) over the neighbour's runs. The
// sums are integers, so run order is immaterial and the numerators equal
// CommonRuns over the sorted encodings exactly; CommonRuns stays the
// reference the kernel is pinned to (and internal/dist's wire-side kernel).
// Both counters are indexed by label value. rSLPA labels are vertex IDs, so
// they are bounded by the ID space like every other scratch table.

// WeightTable holds the weight numerators of a graph's edges between
// extractions. Row v is parallel to the graph's Neighbors(v); only the
// slots of neighbours above v are meaningful (the orientation edges are
// emitted in). An edge's weight depends on nothing but its endpoints'
// label rows, so after a change confined to a dirty vertex set only the
// dirty rows and the dirty vertices' slots in their clean neighbours' rows
// are stale — Reweigh rewrites exactly those.
//
// Numerators are stored as uint32: Σ min ≤ T+1 always fits, Σ product fits
// while (T+1)² < 2³² (the bound internal/dist's wire format already has).
//
// The zero value is an invalid table: the next Reweigh weighs every edge.
// A table is tied to one graph lineage, one label source and one metric;
// it must not be used concurrently.
type WeightTable struct {
	rows  [][]uint32
	valid bool
}

// Reset invalidates the table, keeping its memory: the next Reweigh weighs
// every edge.
func (t *WeightTable) Reset() { t.valid = false }

// histChunk is the size, in words, of the chunks histograms are carved
// from. Chunked storage never moves a histogram once written, so a pass
// over a large graph costs no regrowth copies.
const histChunk = 1 << 18

// histRef locates a vertex's histogram in ExtractScratch.chunks for the
// pass stamped gen.
type histRef struct {
	gen   uint32
	chunk uint32
	off   uint32
	n     uint32 // words (two per run)
}

// histSpace returns n writable words of histogram storage and their
// location, moving on to the next chunk (allocated on first need, reused
// by later passes) when the current one cannot hold them.
func (sc *ExtractScratch) histSpace(n int) (chunk, off int, buf []uint32) {
	if sc.chunkAt < len(sc.chunks) && sc.chunkUsed+n > len(sc.chunks[sc.chunkAt]) {
		sc.chunkAt, sc.chunkUsed = sc.chunkAt+1, 0
	}
	if sc.chunkAt == len(sc.chunks) {
		sc.chunks = append(sc.chunks, nil)
	}
	if len(sc.chunks[sc.chunkAt]) < n {
		sc.chunks[sc.chunkAt] = make([]uint32, max(n, histChunk))
	}
	return sc.chunkAt, sc.chunkUsed, sc.chunks[sc.chunkAt][sc.chunkUsed : sc.chunkUsed+n]
}

// hist returns v's label histogram as interleaved (label, count) runs in
// first-seen order, memoized per pass. v must be below len(sc.hists).
func (sc *ExtractScratch) hist(v uint32, labels LabelSeq, gen uint32) []uint32 {
	if h := sc.hists[v]; h.gen == gen {
		return sc.chunks[h.chunk][h.off : h.off+h.n]
	}
	seq := labels(v)
	chunk, off, buf := sc.histSpace(2 * len(seq))
	build := sc.build
	n := 0
	for _, l := range seq {
		if int(l) >= len(build) {
			sc.build = growTo(sc.build, int(l)+1)
			sc.loaded = growTo(sc.loaded, int(l)+1)
			build = sc.build
		}
		// Written unconditionally and kept only when first seen, so the
		// loop carries no unpredictable branch.
		c := build[l]
		buf[n] = l
		step := 0
		if c == 0 {
			step = 2
		}
		n += step
		build[l] = c + 1
	}
	runs := buf[:n]
	for i := 0; i+1 < len(runs); i += 2 {
		runs[i+1] = build[runs[i]]
		build[runs[i]] = 0
	}
	sc.chunkUsed += n
	sc.hists[v] = histRef{gen: gen, chunk: uint32(chunk), off: uint32(off), n: uint32(n)}
	return runs
}

// load scatters a histogram into the dense loaded-row counter; unload
// zeroes the same entries again.
func (sc *ExtractScratch) load(runs []uint32) {
	for i := 0; i < len(runs); i += 2 {
		sc.loaded[runs[i]] = runs[i+1]
	}
}

func (sc *ExtractScratch) unload(runs []uint32) {
	for i := 0; i < len(runs); i += 2 {
		sc.loaded[runs[i]] = 0
	}
}

// common is the weight numerator of the loaded row against another row's
// histogram: Σ_l min(f_a, f_b) for Intersection, Σ_l f_a·f_b for
// SameLabelProbability.
func (sc *ExtractScratch) common(runs []uint32, metric WeightMetric) uint32 {
	loaded := sc.loaded
	var sum uint32
	if metric == SameLabelProbability {
		for i := 0; i+1 < len(runs); i += 2 {
			sum += runs[i+1] * loaded[runs[i]]
		}
		return sum
	}
	for i := 0; i+1 < len(runs); i += 2 {
		sum += min(runs[i+1], loaded[runs[i]])
	}
	return sum
}

// EdgeWeights is the scratch-backed form of the package-level EdgeWeights:
// every edge weighed into the scratch's private table. The returned slice
// is scratch-owned (valid until the scratch's next use).
func (sc *ExtractScratch) EdgeWeights(g GraphView, labels LabelSeq, metric WeightMetric) []WeightedEdge {
	sc.own.Reset()
	edges, _ := sc.Reweigh(&sc.own, g, labels, metric, nil)
	return edges
}

// Reweigh brings t up to date with g and returns g's weighted edges in
// emission order (ascending u, Neighbors order, u < v) plus the number of
// edges it re-weighed. t must hold the weights of g's previous state — the
// state at the last Reweigh on t — and dirty must cover every vertex whose
// neighbour list or label row changed since (core.UpdateStats.Dirty does;
// removed vertices included). Only edges with a dirty endpoint are
// re-weighed; the emitted weights are bit-identical to a full weighing
// either way. An invalid table (zero value, or after Reset) ignores dirty
// and weighs every edge: the full computation is this routine with every
// vertex dirty. The returned slice is scratch-owned.
func (sc *ExtractScratch) Reweigh(t *WeightTable, g GraphView, labels LabelSeq, metric WeightMetric, dirty []uint32) ([]WeightedEdge, int) {
	gen := sc.bump()
	vs := g.Vertices()
	space := 0
	if len(vs) > 0 {
		space = int(vs[len(vs)-1]) + 1
	}
	if !t.valid {
		dirty = vs
		t.valid = true
	}
	for _, d := range dirty { // a removed vertex may lie above every present one
		space = max(space, int(d)+1)
	}
	t.rows = growTo(t.rows, space)
	sc.hists = growTo(sc.hists, space)
	sc.dirtyGen = growTo(sc.dirtyGen, space)
	sc.chunkAt, sc.chunkUsed = 0, 0
	for _, d := range dirty {
		sc.dirtyGen[d] = gen
	}

	reweighed := 0
	for _, d := range dirty {
		nb := g.Neighbors(d)
		row := t.row(d, len(nb))
		if len(nb) == 0 {
			continue
		}
		hd := sc.hist(d, labels, gen)
		sc.load(hd)
		for i, v := range nb {
			switch {
			case v > d:
				row[i] = sc.common(sc.hist(v, labels, gen), metric)
			case sc.dirtyGen[v] == gen:
				continue // v's own row rewrite covers the edge
			default:
				// Clean lower neighbour: its row is otherwise current, patch
				// the one slot that names d.
				t.rows[v][slices.Index(g.Neighbors(v), d)] = sc.common(sc.hist(v, labels, gen), metric)
			}
			reweighed++
		}
		sc.unload(hd)
	}

	sc.edges = slices.Grow(sc.edges[:0], g.NumEdges())
	for _, u := range vs {
		nb := g.Neighbors(u)
		if len(nb) == 0 {
			continue
		}
		row := t.rows[u]
		lu := float64(len(labels(u)))
		for i, v := range nb {
			if u >= v {
				continue
			}
			w := float64(row[i]) / lu
			if metric == SameLabelProbability {
				w = float64(row[i]) / (lu * float64(len(labels(v))))
			}
			sc.edges = append(sc.edges, WeightedEdge{U: u, V: v, W: w})
		}
	}
	return sc.edges, reweighed
}

// row returns v's row resized to n slots, reusing its memory when it fits.
func (t *WeightTable) row(v uint32, n int) []uint32 {
	if cap(t.rows[v]) < n {
		t.rows[v] = make([]uint32, n)
	}
	t.rows[v] = t.rows[v][:n]
	return t.rows[v]
}
