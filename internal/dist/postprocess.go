package dist

import (
	"encoding/binary"
	"fmt"
	"math"

	"rslpa/internal/cluster"
	"rslpa/internal/cover"
	"rslpa/internal/graph"
	"rslpa/internal/postprocess"
)

// Postprocess extracts overlapping communities from a propagated (and
// possibly updated) distributed rSLPA state, producing the same Result as
// the sequential postprocess.Extract on the same labels — bit-identical
// thresholds, entropy, and community structure for any worker count and
// transport.
//
// The phases, each a handful of barrier-separated supersteps:
//
//  1. RLE shipping: every boundary vertex's label sequence travels sorted
//     and run-length encoded in ONE message per (vertex, target worker) —
//     the payload is exactly the label histogram the weight computation
//     consumes — instead of T+1 fixed-shape messages. Each worker then
//     reduces its resident edges to exact integer common-label counts;
//     the edges never leave the worker.
//  2. τ₂ tree-reduce: per-vertex maximum counts (and the global maximum,
//     for the selection fallback) flow up a binomial aggregation tree —
//     ⌈log₂P⌉ levels, each level's traffic charged to the engine — and the
//     master resolves the weak threshold and broadcasts it.
//  3. Partitioned τ₁ sweep: each worker runs Kruskal over its local edges
//     ≥ τ₂ with a local disjoint-set forest and ships only the surviving
//     component-boundary union pairs (its maximum-spanning-forest edges)
//     up the tree; merge levels re-reduce, so no level forwards more than
//     O(|V|) pairs. A spanning forest preserves connectivity at every
//     threshold, and the sweep's entropy is evaluated canonically from the
//     component-size multiset, so the master's selection over the merged
//     stubs equals the sequential sweep over all edges exactly.
//  4. Assembly: the master broadcasts τ₁, workers ship the weak-attachment
//     candidates (τ₂ ≤ w < τ₁), and the master assembles communities with
//     postprocess.ExtractFromForest.
//
// Counts travel as exact integers and are converted to float weights with
// the same expressions postprocess.EdgeWeights uses, so the final weights
// are bit-identical to the sequential ones.
func Postprocess(eng *cluster.Engine, d *RSLPA, cfg postprocess.Config) (*postprocess.Result, error) {
	if eng != d.eng {
		return nil, fmt.Errorf("dist: Postprocess engine differs from the driver's")
	}
	if !d.run {
		return nil, fmt.Errorf("dist: Postprocess before Propagate")
	}
	if d.g.NumVertices() == 0 {
		return &postprocess.Result{Cover: cover.New(0)}, nil
	}
	// Counts travel as uint32 payload words. Intersection counts are ≤ T+1,
	// but the product metric can reach (T+1)², which would wrap silently
	// for absurdly large T — refuse loudly instead.
	if cfg.Metric == postprocess.SameLabelProbability && d.cfg.T+1 > 0xffff {
		return nil, fmt.Errorf("dist: SameLabelProbability counts overflow the wire integer for T=%d (max %d)", d.cfg.T, 0xffff-1)
	}

	p := eng.Workers()
	L := treeLevels(p)
	// Round schedule. With P=1 the tree has no levels and consecutive
	// phases collapse onto the same round; the step function executes the
	// phase blocks in order, so a round can carry several phases.
	var (
		rShip   = 0       // RLE boundary-sequence shipping
		rBuild  = 1       // ingest sequences, build resident edges, start τ₂ reduce
		rThresh = 1 + L   // master resolves τ₂ (and records the global max), broadcasts
		rForest = 2 + L   // workers build local forests, start forest reduce
		rTau1   = 2 + 2*L // master merges stubs, selects τ₁, broadcasts
		rAttach = 3 + 2*L // workers ship weak-attachment candidates
		rDone   = 4 + 2*L // master assembles the Result
	)

	lu := float64(d.cfg.T + 1)
	weightOf := func(c uint32) float64 {
		if cfg.Metric == postprocess.SameLabelProbability {
			return float64(c) / (lu * lu)
		}
		return float64(c) / lu
	}

	before := eng.Stats()
	ws := make([]*ppWorker, p)
	for i := range ws {
		ws[i] = &ppWorker{runs: make(map[uint32][]uint32), vmax: make(map[uint32]uint32)}
	}
	var result *postprocess.Result
	var resultErr error

	step := func(w, round int, inbox []cluster.Message, emit cluster.Emitter) (bool, error) {
		sh := d.shards[w]
		st := ws[w]

		// Ingest: every kind is safe to fold into worker state on arrival.
		// Malformed payloads (possible only through wire corruption) fail
		// the run loudly rather than computing silently wrong weights.
		for _, m := range inbox {
			switch m.Kind {
			case kindSeqRLE:
				runs, err := unpackRuns(m.Payload)
				if err != nil {
					return false, fmt.Errorf("dist: sequence payload for vertex %d: %w", m.A, err)
				}
				st.runs[m.A] = runs
			case kindVMax:
				if m.A > st.gmax {
					st.gmax = m.A
				}
				for i := 0; i+1 < len(m.Payload); i += 2 {
					v, c := m.Payload[i], m.Payload[i+1]
					if cur, ok := st.vmax[v]; !ok || c > cur {
						st.vmax[v] = c
					}
				}
			case kindThresh, kindTau1:
				if len(m.Payload) < 2 {
					return false, fmt.Errorf("dist: threshold payload of %d words", len(m.Payload))
				}
				if m.Kind == kindThresh {
					st.tau2 = floatFromWords(m.Payload[0], m.Payload[1])
				} else {
					st.tau1 = floatFromWords(m.Payload[0], m.Payload[1])
				}
			case kindForest:
				st.pool = appendTriples(st.pool, m.Payload)
				st.poolDirty = true
			case kindAttach:
				st.attach = appendTriples(st.attach, m.Payload)
			}
		}

		if round == rShip {
			// Ship each owned vertex's RLE sequence to the workers that
			// compute an incident edge but do not own this endpoint.
			targets := make([]bool, p)
			for _, u := range sh.owned {
				for i := range targets {
					targets[i] = false
				}
				any := false
				for _, v := range sh.adj[u] {
					if v < u { // edge (v, u) is computed at v's owner
						if o := d.eng.Owner(v); o != w {
							targets[o], any = true, true
						}
					}
				}
				if !any {
					continue
				}
				packed := packRuns(st.ensureRuns(u, sh.labels[u]))
				for to, need := range targets {
					if need {
						emit(to, cluster.Message{Kind: kindSeqRLE, A: u, Payload: packed})
					}
				}
			}
		}

		if round == rBuild {
			// Reduce every resident edge to its common-label count; edges
			// stay on this worker for the whole pipeline. Track per-vertex
			// and global maxima for the τ₂ reduce. The uint32 narrowing is
			// safe: the T bound checked above caps the count.
			for _, v := range sh.owned {
				for _, u := range sh.adj[v] {
					if v >= u {
						continue
					}
					runsU, ok := st.runs[u]
					if !ok {
						runsU = st.ensureRuns(u, sh.labels[u])
					}
					c := uint32(postprocess.CommonRuns(st.ensureRuns(v, sh.labels[v]), runsU, cfg.Metric))
					st.edges = append(st.edges, countEdge{u: v, v: u, count: c})
					if cur, ok := st.vmax[v]; !ok || c > cur {
						st.vmax[v] = c
					}
					if cur, ok := st.vmax[u]; !ok || c > cur {
						st.vmax[u] = c
					}
					if c > st.gmax {
						st.gmax = c
					}
				}
			}
		}

		// τ₂ reduce levels: the level-ℓ senders forward their merged
		// per-vertex maxima (and global max) to their tree parent. With a
		// user-fixed Tau2 the maxima map is never read at the master, so
		// only the one-word global max travels.
		if lvl := round - rBuild; round >= rBuild && round < rThresh && senderAt(w, lvl) {
			var words []uint32
			if cfg.Tau2 == 0 && len(st.vmax) > 0 {
				words = make([]uint32, 0, 2*len(st.vmax))
				for v, c := range st.vmax {
					words = append(words, v, c)
				}
			}
			if len(words) > 0 || st.gmax > 0 {
				chunks := chunkWords(words, 2)
				if chunks == nil {
					chunks = [][]uint32{nil}
				}
				for _, chunk := range chunks {
					emit(treeParent(w), cluster.Message{Kind: kindVMax, A: st.gmax, Payload: chunk})
				}
			}
		}

		if round == rThresh && w == 0 {
			st.tau2 = cfg.Tau2
			if st.tau2 == 0 && len(st.vmax) > 0 {
				min, any := uint32(0), false
				for _, c := range st.vmax {
					if !any || c < min {
						min, any = c, true
					}
				}
				st.tau2 = weightOf(min)
			}
			st.maxW = weightOf(st.gmax)
			for q := 1; q < p; q++ {
				emit(q, cluster.Message{Kind: kindThresh, Payload: floatWords(st.tau2)})
			}
		}

		if round == rForest {
			// The partitioned sweep's local half: Kruskal over the resident
			// edges ≥ τ₂ builds this worker's disjoint-set forest; only the
			// union pairs that survive (the spanning-forest edges) ever
			// reach the wire.
			st.pool = reduceCountForest(append(st.pool, st.edges...), st.tau2, weightOf)
			st.poolDirty = false
		}

		// Forest reduce levels: re-reduce only if edges arrived since the
		// last reduction, then forward at this worker's send level.
		if lvl := round - rForest; round >= rForest && round < rTau1 && senderAt(w, lvl) {
			st.reducePool(weightOf)
			if len(st.pool) > 0 {
				words := make([]uint32, 0, 3*len(st.pool))
				for _, e := range st.pool {
					words = append(words, e.u, e.v, e.count)
				}
				for _, chunk := range chunkWords(words, 3) {
					emit(treeParent(w), cluster.Message{Kind: kindForest, Payload: chunk})
				}
			}
		}

		if round == rTau1 && w == 0 {
			st.reducePool(weightOf)
			st.tau1 = postprocess.ChooseTau1(toWeighted(st.pool, weightOf), d.g.NumVertices(), st.tau2, st.maxW, cfg)
			for q := 1; q < p; q++ {
				emit(q, cluster.Message{Kind: kindTau1, Payload: floatWords(st.tau1)})
			}
		}

		if round == rAttach {
			// Candidate weak-attachment edges: τ₂ ≤ w < τ₁ (edges ≥ τ₁
			// join two strong vertices and can never attach). The master's
			// own candidates stay local.
			var words []uint32
			for _, e := range st.edges {
				if ew := weightOf(e.count); ew >= st.tau2 && ew < st.tau1 {
					if w == 0 {
						st.attach = append(st.attach, e)
					} else {
						words = append(words, e.u, e.v, e.count)
					}
				}
			}
			for _, chunk := range chunkWords(words, 3) {
				emit(0, cluster.Message{Kind: kindAttach, Payload: chunk})
			}
		}

		if round == rDone && w == 0 {
			result, resultErr = postprocess.ExtractFromForest(
				d.g, toWeighted(st.pool, weightOf), toWeighted(st.attach, weightOf),
				st.tau2, st.maxW, cfg)
		}
		return round < rDone, nil
	}
	if _, err := eng.RunRounds(step, rDone+1); err != nil {
		return nil, err
	}
	d.LastPostprocess = eng.Stats().Sub(before)
	if resultErr != nil {
		return nil, resultErr
	}
	return result, nil
}

// ppWorker is one worker's cross-round state during Postprocess.
type ppWorker struct {
	runs      map[uint32][]uint32 // interleaved sorted (label, count) runs, owned + received
	edges     []countEdge         // resident edges: (u < v, common-label count)
	vmax      map[uint32]uint32   // per-vertex max incident count (τ₂ reduce)
	gmax      uint32              // max count over all merged edges
	tau2      float64
	maxW      float64 // master only: max weight over the full edge set
	pool      []countEdge
	poolDirty bool // pool has unreduced arrivals
	tau1      float64
	attach    []countEdge // master only: gathered attachment candidates
}

// ensureRuns returns the cached sorted RLE runs for a vertex this worker
// owns, encoding them on first use.
func (st *ppWorker) ensureRuns(v uint32, labels []uint32) []uint32 {
	if r, ok := st.runs[v]; ok {
		return r
	}
	r := postprocess.EncodeRuns(labels)
	st.runs[v] = r
	return r
}

// reducePool re-reduces the forest pool if edges arrived since the last
// reduction.
func (st *ppWorker) reducePool(weightOf func(uint32) float64) {
	if st.poolDirty {
		st.pool = reduceCountForest(st.pool, st.tau2, weightOf)
		st.poolDirty = false
	}
}

// countEdge is a weighted edge in exact integer form: the common-label
// count that postprocess.EdgeWeights would divide by (T+1) or (T+1)².
type countEdge struct {
	u, v, count uint32
}

// packRuns byte-packs interleaved (label, count) runs for the wire: labels
// are sorted, so each label travels as a varint delta from its predecessor
// and each count as a varint — typically 2-3 bytes per run instead of 8.
// The byte stream rides in uint32 payload words behind a byte-length word.
func packRuns(runs []uint32) []uint32 {
	buf := make([]byte, 0, 2*len(runs))
	prev := uint64(0)
	for i := 0; i+1 < len(runs); i += 2 {
		l := uint64(runs[i])
		buf = binary.AppendUvarint(buf, l-prev)
		buf = binary.AppendUvarint(buf, uint64(runs[i+1]))
		prev = l
	}
	words := make([]uint32, 1+(len(buf)+3)/4)
	words[0] = uint32(len(buf))
	for i, x := range buf {
		words[1+i/4] |= uint32(x) << (8 * (i % 4))
	}
	return words
}

// unpackRuns inverts packRuns back to interleaved (label, count) runs. A
// payload that survived the codec's frame checks can still be corrupt;
// every structural violation is an error so the run fails loudly instead
// of computing wrong weights (or spinning on a truncated varint).
func unpackRuns(words []uint32) ([]uint32, error) {
	if len(words) == 0 {
		return nil, fmt.Errorf("empty RLE payload")
	}
	if int(words[0]) > 4*(len(words)-1) {
		return nil, fmt.Errorf("RLE byte length %d exceeds payload of %d words", words[0], len(words)-1)
	}
	buf := make([]byte, words[0])
	for i := range buf {
		buf[i] = byte(words[1+i/4] >> (8 * (i % 4)))
	}
	runs := make([]uint32, 0, len(buf))
	prev := uint64(0)
	for off := 0; off < len(buf); {
		delta, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return nil, fmt.Errorf("truncated label varint at byte %d", off)
		}
		off += n
		count, n2 := binary.Uvarint(buf[off:])
		if n2 <= 0 {
			return nil, fmt.Errorf("truncated count varint at byte %d", off)
		}
		off += n2
		prev += delta
		if prev > 0xffffffff || count > 0xffffffff {
			return nil, fmt.Errorf("RLE value overflows uint32")
		}
		runs = append(runs, uint32(prev), uint32(count))
	}
	return runs, nil
}

// reduceCountForest keeps a maximum-count spanning forest of the edges
// whose weight reaches tau2, through postprocess.ReduceForestBy's Kruskal
// kernel. Count order equals weight order (the conversion is strictly
// monotonic), so the forest preserves connectivity at every threshold ≥ τ₂.
func reduceCountForest(edges []countEdge, tau2 float64, weightOf func(uint32) float64) []countEdge {
	return postprocess.ReduceForestBy(edges,
		func(e countEdge) bool { return weightOf(e.count) >= tau2 },
		func(a, b countEdge) bool {
			if a.count != b.count {
				return a.count > b.count
			}
			if a.u != b.u {
				return a.u < b.u
			}
			return a.v < b.v
		},
		func(e countEdge) (uint32, uint32) { return e.u, e.v })
}

// toWeighted converts integer-count edges to the float weights the
// sequential pipeline computes, with identical expressions.
func toWeighted(edges []countEdge, weightOf func(uint32) float64) []postprocess.WeightedEdge {
	out := make([]postprocess.WeightedEdge, len(edges))
	for i, e := range edges {
		out[i] = postprocess.WeightedEdge{U: e.u, V: e.v, W: weightOf(e.count)}
	}
	return out
}

// appendTriples decodes a packed [u, v, count, ...] payload.
func appendTriples(dst []countEdge, words []uint32) []countEdge {
	for i := 0; i+2 < len(words); i += 3 {
		dst = append(dst, countEdge{u: words[i], v: words[i+1], count: words[i+2]})
	}
	return dst
}

// chunkWords splits a packed payload into chunks below MaxPayloadWords on
// record boundaries (stride words per record). Nil input yields no chunks.
func chunkWords(words []uint32, stride int) [][]uint32 {
	if len(words) == 0 {
		return nil
	}
	max := (cluster.MaxPayloadWords / stride) * stride
	var chunks [][]uint32
	for len(words) > max {
		chunks = append(chunks, words[:max])
		words = words[max:]
	}
	return append(chunks, words)
}

// floatWords packs a float64 into two payload words (hi, lo).
func floatWords(f float64) []uint32 {
	b := math.Float64bits(f)
	return []uint32{uint32(b >> 32), uint32(b)}
}

// floatFromWords unpacks floatWords.
func floatFromWords(hi, lo uint32) float64 {
	return math.Float64frombits(uint64(hi)<<32 | uint64(lo))
}

// treeLevels returns ⌈log₂ p⌉, the depth of the binomial reduce tree.
func treeLevels(p int) int {
	l := 0
	for 1<<l < p {
		l++
	}
	return l
}

// senderAt reports whether worker w transmits at reduce level lvl: each
// nonzero worker sends exactly once, at the level of its lowest set bit.
func senderAt(w, lvl int) bool {
	return w != 0 && w%(1<<(lvl+1)) == 1<<lvl
}

// treeParent is the receiver for worker w's single transmission.
func treeParent(w int) int {
	return w &^ (w & -w)
}

// NaivePostprocessBytes models the wire cost of the gather protocol this
// package replaced: one fixed 17-byte message per label per (boundary
// vertex, target worker) pair, plus one 17-byte weight message per edge
// funneled to the master. The wire-reduction regression test and the CI
// bench-smoke benchmark both measure against this single model.
func NaivePostprocessBytes(g *graph.Graph, part cluster.Partitioner, T int) int64 {
	const oldWireSize = 17
	pairs := make(map[uint64]bool)
	edges := 0
	g.ForEachEdge(func(u, v uint32) {
		edges++
		if u > v {
			u, v = v, u
		}
		// Edge (u, v), u < v, is computed at u's owner; v's sequence ships
		// there when owned elsewhere.
		if o := part.Owner(u); o != part.Owner(v) {
			pairs[uint64(v)<<32|uint64(o)] = true
		}
	})
	return int64(len(pairs))*int64(T+1)*oldWireSize + int64(edges)*oldWireSize
}
