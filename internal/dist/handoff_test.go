package dist

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"rslpa/internal/cluster"
	"rslpa/internal/core"
	"rslpa/internal/dynamic"
	"rslpa/internal/graph"
)

// TestDetectHandOffMatchesPropagate pins the hand-off a distributed Detect
// and restore build their driver with: NewRSLPAFromState over a
// core.RunParallel State holds, shard for shard, the state NewRSLPA +
// Propagate builds with messages, and the two drivers stay identical under
// the same Update batches — labels, UpdateStats and wire cost.
func TestDetectHandOffMatchesPropagate(t *testing.T) {
	g := lfrFixture(t)
	cfg := core.Config{T: 30, Seed: 5}
	cases := []struct {
		kind    cluster.TransportKind
		workers int
	}{{cluster.Local, 2}, {cluster.Local, 3}, {cluster.Local, 4}, {cluster.Local, 7}, {cluster.TCP, 2}}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/%dworkers", tc.kind, tc.workers), func(t *testing.T) {
			engine := func() *cluster.Engine {
				eng, err := cluster.New(cluster.Config{Workers: tc.workers, Transport: tc.kind})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { eng.Close() })
				return eng
			}
			prop, err := NewRSLPA(engine(), g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := prop.Propagate(); err != nil {
				t.Fatal(err)
			}
			st, err := core.RunParallel(g, cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			hand := NewRSLPAFromState(engine(), st)

			requireStateConsumed(t, g, st)
			requireSameShards(t, prop, hand)
			requireOwnAdjacency(t, hand)

			work := g.Clone()
			for i := 0; i < 3; i++ {
				batch, err := dynamic.Batch(work, 40, uint64(300+i))
				if err != nil {
					t.Fatal(err)
				}
				work.Apply(batch)
				ps, err := prop.Update(batch)
				if err != nil {
					t.Fatal(err)
				}
				hs, err := hand.Update(batch)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ps, hs) {
					t.Fatalf("batch %d stats: Propagate driver %+v, hand-off %+v", i, ps, hs)
				}
				if prop.LastUpdate != hand.LastUpdate {
					t.Fatalf("batch %d wire cost: Propagate driver %+v, hand-off %+v", i, prop.LastUpdate, hand.LastUpdate)
				}
				work.ForEachVertex(func(v uint32) {
					if a, b := prop.Labels(v), hand.Labels(v); !slices.Equal(a, b) {
						t.Fatalf("batch %d vertex %d: labels %v vs %v", i, v, a, b)
					}
				})
			}
			requireOwnAdjacency(t, hand)
		})
	}
}

// requireStateConsumed asserts HandOff left the State nothing to write.
func requireStateConsumed(t *testing.T, g *graph.Graph, st *core.State) {
	t.Helper()
	if st.Graph() != nil {
		t.Fatal("handed-over State still holds its graph")
	}
	g.ForEachVertex(func(v uint32) {
		if _, _, ok := st.Pick(v, 1); ok || st.Records(v) != nil || st.Labels(v) != nil {
			t.Fatalf("handed-over State still holds vertex %d's rows", v)
		}
	})
}

// requireSameShards asserts two drivers on the same worker count hold the
// same rows at the same owners: labels, src and pos slot by slot, and each
// source's record row as a multiset (Propagate appends records in arrival
// order, the hand-off in core's (iteration, vertex) order).
func requireSameShards(t *testing.T, a, b *RSLPA) {
	t.Helper()
	if !a.g.Equal(b.g) {
		t.Fatal("master graphs differ")
	}
	for w := range a.shards {
		sa, sb := a.shards[w], b.shards[w]
		if !slices.Equal(sa.owned, sb.owned) {
			t.Fatalf("worker %d owns %v vs %v", w, sa.owned, sb.owned)
		}
		for _, v := range sa.owned {
			if !slices.Equal(sa.labels[v], sb.labels[v]) || !slices.Equal(sa.src[v], sb.src[v]) ||
				!slices.Equal(sa.pos[v], sb.pos[v]) || !slices.Equal(sa.adj[v], sb.adj[v]) {
				t.Fatalf("worker %d vertex %d: rows differ", w, v)
			}
			if !slices.Equal(sortedRecords(sa.recv[v]), sortedRecords(sb.recv[v])) {
				t.Fatalf("worker %d vertex %d: record rows differ as multisets", w, v)
			}
		}
	}
}

func sortedRecords(row []core.Record) []core.Record {
	out := slices.Clone(row)
	slices.SortFunc(out, func(x, y core.Record) int {
		return cmp.Or(cmp.Compare(x.Iter, y.Iter), cmp.Compare(x.Tar, y.Tar), cmp.Compare(x.Pos, y.Pos))
	})
	return out
}

// requireOwnAdjacency asserts no shard's adjacency list shares a backing
// array with the master graph's: both are mutated under Update.
func requireOwnAdjacency(t *testing.T, d *RSLPA) {
	t.Helper()
	for w, sh := range d.shards {
		for _, v := range sh.owned {
			if sharesArray(sh.adj[v], d.g.Neighbors(v)) {
				t.Fatalf("worker %d vertex %d shares its adjacency with the master graph", w, v)
			}
		}
	}
}

// sharesArray reports whether a and b's backing arrays overlap.
func sharesArray(a, b []uint32) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	a0, b0 := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return a0 < b0+uintptr(cap(b))*4 && b0 < a0+uintptr(cap(a))*4
}
