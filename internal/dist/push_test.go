package dist

import (
	"fmt"
	"sync"
	"testing"

	"rslpa/internal/cluster"
	"rslpa/internal/core"
	"rslpa/internal/dynamic"
	"rslpa/internal/graph"
	"rslpa/internal/lfr"
)

// TestUpdateRoundLadder applies the same seeded insert/delete batches of 2,
// 8 and 100 edits to LFR 2 000 at P ∈ {1, 2, 4, 7} on the local transport: the push schedule
// runs one round per non-idle level plus the fixed two at every worker
// count, and every stats field other than RoundsRun equals the sequential
// engine's. Messages and bytes per edit are logged per P.
func TestUpdateRoundLadder(t *testing.T) {
	p := lfr.Default(2000)
	p.Seed = 3
	res, err := lfr.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	cfg := core.Config{T: 60, Seed: 13}
	// Batch sizes from a trickle, which leaves most levels idle, to one
	// that dirties every level.
	var batches [][]graph.Edit
	work := g.Clone()
	for i, size := range []int{2, 8, 100} {
		b, err := dynamic.Batch(work, size, uint64(41+i))
		if err != nil {
			t.Fatal(err)
		}
		work.Apply(b)
		batches = append(batches, b)
	}
	seq, err := core.Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []core.UpdateStats
	for _, b := range batches {
		want = append(want, seq.Update(b))
	}
	var rounds []int // per batch, from the first worker count
	for _, workers := range []int{1, 2, 4, 7} {
		eng := newEngine(t, workers)
		d, err := NewRSLPA(eng, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Propagate(); err != nil {
			t.Fatal(err)
		}
		var cost cluster.Stats
		edits := 0
		for i, b := range batches {
			ds, err := d.Update(b)
			if err != nil {
				t.Fatal(err)
			}
			requireSameStats(t, want[i], ds, cfg.T)
			if len(rounds) <= i {
				rounds = append(rounds, ds.RoundsRun)
			} else if ds.RoundsRun != rounds[i] {
				t.Fatalf("P=%d batch %d: RoundsRun = %d, P=1 ran %d", workers, i, ds.RoundsRun, rounds[i])
			}
			cost.Messages += d.LastUpdate.Messages
			cost.Bytes += d.LastUpdate.Bytes
			edits += len(b)
		}
		requireSameLabels(t, d.Graph(), seq, d)
		t.Logf("P=%d: rounds per batch %v, %.1f messages and %.0f B per edit", workers, rounds,
			float64(cost.Messages)/float64(edits), float64(cost.Bytes)/float64(edits))
	}
}

type subscription struct{ src, pos, tar, iter uint32 }

// updateObserved is Update with the round-0 record adds (one subscription
// per repicked slot) captured on their way out.
func updateObserved(t *testing.T, d *RSLPA, batch []graph.Edit) (core.UpdateStats, []subscription) {
	t.Helper()
	var mu sync.Mutex
	var subs []subscription
	d.epoch++
	stats, err := d.correct(func(w int, sh *shard, sc *updScratch, emit cluster.Emitter) {
		d.applyBatch(sh, sc, w, batch, func(to int, m cluster.Message) {
			if m.Kind == kindAddRec {
				mu.Lock()
				subs = append(subs, subscription{m.A, m.B, m.Payload[0], m.Payload[1]})
				mu.Unlock()
			}
			emit(to, m)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	d.g.Apply(batch)
	return stats, subs
}

// TestSubscriptionAtFirstActiveLevel pins the push schedule's edge case on
// 2 workers: a slot repicked onto a remote source at pos = the batch's
// first active level, where the source's own label at that level changes
// in the same batch. The fixup round pushes the source's pre-batch value
// and the first level's cascade must supersede it; the result must match
// the sequential engine bit for bit.
func TestSubscriptionAtFirstActiveLevel(t *testing.T) {
	g := webFixture(t)
	cfg := core.Config{T: 30, Seed: 5}
	seq, err := core.Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngine(t, 2)
	d, err := NewRSLPA(eng, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Propagate(); err != nil {
		t.Fatal(err)
	}
	before := make(map[uint32][]uint32)
	g.ForEachVertex(func(v uint32) { before[v] = append([]uint32(nil), d.Labels(v)...) })
	batch, err := dynamic.Batch(g.Clone(), 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	ds, subs := updateObserved(t, d, batch)

	first := uint32(cfg.T)
	for _, s := range subs {
		first = min(first, s.iter)
	}
	var edge []string
	for _, s := range subs {
		if s.pos == first && eng.Owner(s.src) != eng.Owner(s.tar) && before[s.src][first] != d.Labels(s.src)[first] {
			edge = append(edge, fmt.Sprintf("%+v", s))
		}
	}
	if len(edge) == 0 {
		t.Fatalf("batch has no remote subscription at its first active level %d whose value changes; pick another fixture", first)
	}
	t.Logf("first active level %d, edge-case subscriptions %v", first, edge)

	ss := seq.Update(batch)
	requireSameStats(t, ss, ds, cfg.T)
	requireSameLabels(t, d.Graph(), seq, d)
}
