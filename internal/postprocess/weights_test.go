package postprocess

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"rslpa/internal/graph"
)

// kernelNumerator weighs the single edge {0, 1} with label rows a and b
// through the dense-counter kernel and returns the stored numerator.
func kernelNumerator(sc *ExtractScratch, a, b []uint32, metric WeightMetric) uint64 {
	g := graph.New()
	g.AddEdge(0, 1)
	var t WeightTable
	sc.Reweigh(&t, g, fixedLabels(map[uint32][]uint32{0: a, 1: b}), metric, nil)
	return uint64(t.rows[0][0])
}

// referenceEdges weighs g the way the sorted-RLE kernel did: EncodeRuns +
// CommonRuns per edge, in ForEachEdge order.
func referenceEdges(g *graph.Graph, labels LabelSeq, metric WeightMetric) []WeightedEdge {
	var edges []WeightedEdge
	g.ForEachEdge(func(u, v uint32) {
		common := CommonRuns(EncodeRuns(labels(u)), EncodeRuns(labels(v)), metric)
		w := float64(common) / float64(len(labels(u)))
		if metric == SameLabelProbability {
			w = float64(common) / (float64(len(labels(u))) * float64(len(labels(v))))
		}
		edges = append(edges, WeightedEdge{U: u, V: v, W: w})
	})
	return edges
}

func randomRow(rng *rand.Rand, n int, alphabet uint32) []uint32 {
	row := make([]uint32, n)
	for i := range row {
		row[i] = rng.Uint32N(alphabet)
	}
	return row
}

// The dense-counter kernel's numerator equals the merge-join of the sorted
// encodings for both metrics — on empty rows, rows of one repeated label,
// and labels on either side of the counter table's current edge (one
// scratch serves every case, so the table grows mid-sequence).
func TestKernelMatchesCommonRuns(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var sc ExtractScratch
	check := func(a, b []uint32) {
		t.Helper()
		for _, metric := range []WeightMetric{Intersection, SameLabelProbability} {
			want := CommonRuns(EncodeRuns(a), EncodeRuns(b), metric)
			if got := kernelNumerator(&sc, a, b, metric); got != want {
				t.Fatalf("metric %d: kernel %d, CommonRuns %d\na=%v\nb=%v", metric, got, want, a, b)
			}
		}
	}
	check(nil, nil)
	check(nil, []uint32{3, 3, 1})
	check([]uint32{7}, nil)
	check([]uint32{5, 5, 5, 5}, []uint32{5, 5})
	for i := 0; i < 300; i++ {
		alphabet := []uint32{1, 4, 40, 5000}[rng.IntN(4)]
		a := randomRow(rng, rng.IntN(250), alphabet)
		b := randomRow(rng, rng.IntN(250), alphabet)
		if edge := uint32(len(sc.build)); edge > 0 && i%3 == 0 {
			// Last slot of the table, first slot past it, and one beyond.
			a = append(a, edge-1, edge, edge)
			b = append(b, edge, edge+1, edge-1)
		}
		check(a, b)
	}
}

func FuzzKernelMatchesCommonRuns(f *testing.F) {
	f.Add([]byte{}, []byte{1, 2, 3})
	f.Add([]byte{0, 0, 0, 9, 255, 255}, []byte{255, 255, 0, 0})
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		// Two bytes per label keeps the dense tables at 64 Ki entries.
		row := func(p []byte) []uint32 {
			r := make([]uint32, len(p)/2)
			for i := range r {
				r[i] = uint32(p[2*i])<<8 | uint32(p[2*i+1])
			}
			return r
		}
		a, b := row(ab), row(bb)
		var sc ExtractScratch
		for _, metric := range []WeightMetric{Intersection, SameLabelProbability} {
			want := CommonRuns(EncodeRuns(a), EncodeRuns(b), metric)
			if got := kernelNumerator(&sc, a, b, metric); got != want {
				t.Fatalf("metric %d: kernel %d, CommonRuns %d", metric, got, want)
			}
		}
	})
}

// A table carried across random graph and label changes, told only the
// dirty set, emits exactly the edges a full weighing (and the sorted-RLE
// reference) produces — including after vertex removal, re-creation, and
// ID-space growth.
func TestReweighMatchesFull(t *testing.T) {
	for _, metric := range []WeightMetric{Intersection, SameLabelProbability} {
		rng := rand.New(rand.NewPCG(9, uint64(metric)))
		g := graph.New()
		rows := map[uint32][]uint32{}
		labels := fixedLabels(rows)
		n := uint32(60)
		touch := func(dirty map[uint32]struct{}, v uint32) {
			dirty[v] = struct{}{}
			if _, ok := rows[v]; !ok {
				rows[v] = randomRow(rng, 40, 12)
			}
		}
		var table WeightTable
		var inc, full ExtractScratch
		for step := 0; step < 120; step++ {
			dirty := map[uint32]struct{}{}
			for k := rng.IntN(6); k >= 0; k-- {
				u, v := rng.Uint32N(n), rng.Uint32N(n)
				switch op := rng.IntN(10); {
				case op < 5 && u != v:
					if g.AddEdge(u, v) {
						touch(dirty, u)
						touch(dirty, v)
					}
				case op < 7 && g.HasVertex(u) && g.Degree(u) > 0:
					w := g.Neighbors(u)[rng.IntN(g.Degree(u))]
					g.RemoveEdge(u, w)
					touch(dirty, u)
					touch(dirty, w)
				case op < 8 && g.HasVertex(u):
					for _, w := range append([]uint32(nil), g.Neighbors(u)...) {
						touch(dirty, w)
					}
					g.RemoveVertex(u)
					delete(rows, u)
					dirty[u] = struct{}{}
				case g.HasVertex(u): // label-only change
					row := rows[u]
					row[rng.IntN(len(row))] = rng.Uint32N(12)
					dirty[u] = struct{}{}
				}
			}
			if step%25 == 24 {
				n += 40 // grow the ID space
			}
			var list []uint32
			for v := range dirty {
				list = append(list, v)
			}
			got, _ := inc.Reweigh(&table, g, labels, metric, list)
			want := full.EdgeWeights(g, labels, metric)
			if !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
				t.Fatalf("metric %d step %d: incremental edges differ from a full weighing", metric, step)
			}
			if ref := referenceEdges(g, labels, metric); !reflect.DeepEqual(want, ref) && (len(want) != 0 || len(ref) != 0) {
				t.Fatalf("metric %d step %d: full weighing differs from the sorted-RLE reference", metric, step)
			}
		}
	}
}

// Reweigh re-weighs only edges with a dirty endpoint, and every edge when
// the table is invalid.
func TestReweighCountsOnlyDirtyEdges(t *testing.T) {
	g, labels := twoCliques()
	var sc ExtractScratch
	var table WeightTable
	if _, n := sc.Reweigh(&table, g, labels, Intersection, nil); n != g.NumEdges() {
		t.Fatalf("first pass re-weighed %d of %d edges", n, g.NumEdges())
	}
	if _, n := sc.Reweigh(&table, g, labels, Intersection, nil); n != 0 {
		t.Fatalf("empty dirty set re-weighed %d edges", n)
	}
	if _, n := sc.Reweigh(&table, g, labels, Intersection, []uint32{0}); n != g.Degree(0) {
		t.Fatalf("dirty {0} re-weighed %d edges, want degree %d", n, g.Degree(0))
	}
	table.Reset()
	if _, n := sc.Reweigh(&table, g, labels, Intersection, []uint32{0}); n != g.NumEdges() {
		t.Fatalf("reset table re-weighed %d of %d edges", n, g.NumEdges())
	}
}
