package dist

import (
	"fmt"
	"testing"

	"rslpa/internal/cluster"
	"rslpa/internal/core"
	"rslpa/internal/dynamic"
)

// TestUpdateSkipsIdleLevels pins the sparse schedule's acceptance
// criterion: a correction run that dirties only levels {3, 97} at T=100
// costs one engine round per active level plus the fixed two, not O(T).
// The pushes are queued directly in the correction runner on a clean
// post-Propagate state, each carrying the slot's current value (the pick
// invariant), so no cascades fire and exactly two levels are non-idle.
func TestUpdateSkipsIdleLevels(t *testing.T) {
	g := webFixture(t)
	cfg := core.Config{T: 100, Seed: 9}
	seq, err := core.Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		eng := newEngine(t, workers)
		d, err := NewRSLPA(eng, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Propagate(); err != nil {
			t.Fatal(err)
		}

		wantTouched := 0
		stats, err := d.correct(func(w int, sh *shard, sc *updScratch, emit cluster.Emitter) {
			marked := 0
			for _, v := range sh.owned {
				if marked == 3 {
					break
				}
				sc.enqueue(v, 3, sh.labels[v][3])
				sc.enqueue(v, 97, sh.labels[v][97])
				marked++
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < workers; w++ {
			owned := 0
			g.ForEachVertex(func(v uint32) {
				if eng.Owner(v) == w {
					owned++
				}
			})
			if owned > 3 {
				owned = 3
			}
			wantTouched += 2 * owned
		}

		if stats.LevelsSkipped != 98 {
			t.Fatalf("workers=%d: LevelsSkipped = %d, want 98", workers, stats.LevelsSkipped)
		}
		if stats.Touched != wantTouched || stats.Changed != 0 {
			t.Fatalf("workers=%d: touched %d (want %d), changed %d (want 0)",
				workers, stats.Touched, wantTouched, stats.Changed)
		}
		// Two active levels: one round each plus the seed round and the
		// ballot round that follows it. A dense schedule would pay a round
		// for each of the 97 levels just to reach level 97.
		if want := 2 + updateRoundsFixed; stats.RoundsRun != want {
			t.Fatalf("workers=%d: RoundsRun = %d, want %d", workers, stats.RoundsRun, want)
		}
		// No value changed, so the matrix must still equal the sequential one.
		requireSameLabels(t, g, seq, d)
	}
}

// TestUpdateEquivalenceMatrix re-pins bit-identity of the sparse scheduler
// against the sequential Update for P ∈ {1, 2, 3, 7} on both transports:
// labels, covers-feeding state and every mode-independent stats field must
// match after consecutive dynamic batches.
func TestUpdateEquivalenceMatrix(t *testing.T) {
	g := webFixture(t)
	cfg := core.Config{T: 40, Seed: 31}
	for _, kind := range []cluster.TransportKind{cluster.Local, cluster.TCP} {
		for _, workers := range []int{1, 2, 3, 7} {
			t.Run(fmt.Sprintf("%s/%dworkers", kind, workers), func(t *testing.T) {
				seq, err := core.Run(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := cluster.New(cluster.Config{Workers: workers, Transport: kind})
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				d, err := NewRSLPA(eng, g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := d.Propagate(); err != nil {
					t.Fatal(err)
				}
				work := g.Clone()
				for i := 0; i < 2; i++ {
					batch, err := dynamic.Batch(work, 50, uint64(200+i))
					if err != nil {
						t.Fatal(err)
					}
					work.Apply(batch)
					ss := seq.Update(batch)
					ds, err := d.Update(batch)
					if err != nil {
						t.Fatal(err)
					}
					requireSameStats(t, ss, ds, cfg.T)
					requireSameLabels(t, work, seq, d)
				}
			})
		}
	}
}

// TestUpdateRoundTrace checks the engine's per-round accounting of an
// Update run: the trace covers exactly RoundsRun supersteps and its final
// round is quiescent (the schedule terminates by silence, not by a cap).
func TestUpdateRoundTrace(t *testing.T) {
	g := lfrFixture(t)
	cfg := core.Config{T: 30, Seed: 17}
	eng := newEngine(t, 3)
	d, err := NewRSLPA(eng, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Propagate(); err != nil {
		t.Fatal(err)
	}
	batch, err := dynamic.Batch(g.Clone(), 40, 77)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := d.Update(batch)
	if err != nil {
		t.Fatal(err)
	}
	trace := eng.LastTrace()
	if len(trace) != stats.RoundsRun {
		t.Fatalf("trace has %d rounds, UpdateStats.RoundsRun = %d", len(trace), stats.RoundsRun)
	}
	if last := trace[len(trace)-1]; last.Messages != 0 || last.Bytes != 0 {
		t.Fatalf("final round moved traffic %+v, want quiescent termination", last)
	}
	var total cluster.Stats
	for _, r := range trace {
		total.Messages += r.Messages
		total.Bytes += r.Bytes
	}
	if total.Messages != d.LastUpdate.Messages || total.Bytes != d.LastUpdate.Bytes {
		t.Fatalf("trace totals %+v != LastUpdate %+v", total, d.LastUpdate)
	}
}
