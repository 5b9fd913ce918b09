package dist

import (
	"fmt"
	"slices"
	"testing"

	"rslpa/internal/core"
	"rslpa/internal/dynamic"
	"rslpa/internal/graph"
	"rslpa/internal/lfr"
)

// frozenEngine is what TestDirtyIsExactlyWhatChanged drives on each
// engine: the mutations of a detector plus Freeze and Labels.
type frozenEngine struct {
	labels func(uint32) []uint32
	freeze func()
	update func([]graph.Edit) core.UpdateStats
	remove func(uint32) core.UpdateStats
	add    func(uint32) core.UpdateStats
}

// TestDirtyIsExactlyWhatChanged pins UpdateStats.Dirty to "changed", not
// "touched", on the sequential engine and on two BSP workers: over seeded
// insert/delete batches on LFR 2 000, with fresh vertex IDs, isolated
// additions and vertex removals mixed in, Dirty equals the union of the
// effective edits' endpoints, the created and removed vertices, and the
// vertices whose label row differs from its frozen pre-batch row. It
// holds because a slot outside the endpoints is queued only when its
// source's value at pos changed, and a slot is recomputed at most once
// per batch, so every slot correction propagation visits there changes.
// Comparing against the frozen rows also pins Freeze: a row written in
// place would compare equal to itself and leave Dirty larger.
func TestDirtyIsExactlyWhatChanged(t *testing.T) {
	p := lfr.Default(2000)
	p.Seed = 5
	res, err := lfr.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	cfg := core.Config{T: 60, Seed: 3}

	seq, err := core.Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewRSLPA(newEngine(t, 2), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Propagate(); err != nil {
		t.Fatal(err)
	}
	must := func(st core.UpdateStats, err error) core.UpdateStats {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	engines := map[string]frozenEngine{
		"sequential": {
			labels: seq.Labels,
			freeze: seq.Freeze,
			update: seq.Update,
			remove: func(v uint32) core.UpdateStats { st, _ := seq.RemoveVertex(v); return st },
			add:    func(v uint32) core.UpdateStats { st, _ := seq.AddVertex(v); return st },
		},
		"workers=2": {
			labels: d.Labels,
			freeze: d.Freeze,
			update: func(b []graph.Edit) core.UpdateStats { return must(d.Update(b)) },
			remove: func(v uint32) core.UpdateStats { st, _, err := d.RemoveVertex(v); return must(st, err) },
			add:    func(v uint32) core.UpdateStats { st, _ := d.AddVertex(v); return st },
		},
	}

	work := g.Clone()
	fresh := uint32(work.MaxVertexID()) // next never-seen vertex ID
	sizes := []int{2, 8, 64, 200}
	for step := range 12 {
		// One mutation per step, the same on both engines: an edit batch
		// (every third one reaching a fresh vertex ID), an isolated vertex
		// addition, or a vertex removal.
		var mut func(e frozenEngine) core.UpdateStats
		var endpoints []uint32
		switch step % 6 {
		case 4:
			v := fresh
			fresh++
			work.AddVertex(v)
			endpoints = []uint32{v}
			mut = func(e frozenEngine) core.UpdateStats { return e.add(v) }
		case 5:
			vs := work.Vertices()
			v := vs[(step*7919)%len(vs)]
			endpoints = append([]uint32{v}, work.Neighbors(v)...)
			work.RemoveVertex(v)
			mut = func(e frozenEngine) core.UpdateStats { return e.remove(v) }
		default:
			batch, err := dynamic.Batch(work, sizes[step%len(sizes)], uint64(40+step))
			if err != nil {
				t.Fatal(err)
			}
			if step%3 == 0 {
				batch = append(batch, graph.Edit{Op: graph.Insert, U: batch[0].U, V: fresh})
				fresh++
			}
			batch = graph.Canonicalize(work, batch)
			work.Apply(batch)
			for _, e := range batch {
				endpoints = append(endpoints, e.U, e.V)
			}
			mut = func(e frozenEngine) core.UpdateStats { return e.update(batch) }
		}

		var stats []core.UpdateStats
		for _, name := range []string{"sequential", "workers=2"} {
			e := engines[name]
			e.freeze()
			before := make([][]uint32, fresh)
			for v := range before {
				before[v] = e.labels(uint32(v))
			}
			st := mut(e)
			want := slices.Clone(endpoints)
			for v := range before {
				if !slices.Equal(before[v], e.labels(uint32(v))) {
					want = append(want, uint32(v))
				}
			}
			slices.Sort(want)
			want = slices.Compact(want)
			if !slices.Equal(st.Dirty, want) {
				t.Fatalf("step %d, %s: |Dirty| = %d, |endpoints ∪ changed rows| = %d\n%s",
					step, name, len(st.Dirty), len(want), diffSets(st.Dirty, want))
			}
			t.Logf("step %d, %s: |Dirty| = %d = |endpoints ∪ changed rows|", step, name, len(st.Dirty))
			stats = append(stats, st)
		}
		requireSameStats(t, stats[0], stats[1], cfg.T)
	}
}

// diffSets reports the members of two sorted sets that the other lacks.
func diffSets(got, want []uint32) string {
	var extra, missing []uint32
	for _, v := range got {
		if _, ok := slices.BinarySearch(want, v); !ok {
			extra = append(extra, v)
		}
	}
	for _, v := range want {
		if _, ok := slices.BinarySearch(got, v); !ok {
			missing = append(missing, v)
		}
	}
	return fmt.Sprintf("in Dirty only: %v\nchanged but not in Dirty: %v", extra, missing)
}
