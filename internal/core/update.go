package core

import (
	"slices"

	"rslpa/internal/graph"
)

// UpdateStats reports what an Update batch did; Touched is the measured η
// of Section IV-D (the number of labels that needed to be examined), which
// the analytic model in internal/complexity predicts.
type UpdateStats struct {
	Inserted int // edge insertions that changed the graph
	Deleted  int // edge deletions that changed the graph

	Repicked int // picks re-drawn or switched (Categories 2 and 3)
	Touched  int // label slots visited by correction propagation (η)
	Changed  int // label values that actually changed

	// LevelsSkipped counts correction levels in 1..T that held no dirty
	// slots and were therefore collapsed to zero work by the sparse
	// schedule. The set of non-idle levels is a pure function of the batch,
	// so the count is identical across execution modes and worker counts.
	LevelsSkipped int
	// RoundsRun is the cost of correction propagation under the engine's
	// own schedule: the sequential State counts one pass per non-idle level,
	// while the distributed driver counts the BSP supersteps it actually
	// executed (the apply/repick round, the record-fixup round and one
	// round per non-idle level).
	// A batch that dirties nothing reports zero for both counters.
	RoundsRun int

	// Dirty is the sorted, deduplicated set of vertices whose externally
	// visible state (adjacency or label sequence) changed: the endpoints
	// of every effective edit plus every vertex correction propagation
	// visited. Outside the endpoints every visited slot changes — it was
	// queued because its source's value at pos changed, and no slot is
	// recomputed twice in a batch — so Dirty is exactly the endpoints,
	// the created and removed vertices and the vertices whose label row
	// changed. It is what lets the streaming service publish
	// copy-on-write snapshots — only the shards covering Dirty vertices
	// are recloned; everything else is shared with the previous epoch.
	// The set is a pure function of the canonical batch, so it is
	// identical across execution modes and worker counts. Nil when the
	// batch changed nothing.
	Dirty []uint32
}

// Update applies a batch of edge edits to the State's graph and runs
// Correction Propagation (Algorithm 2) so that afterwards the label matrix
// is distributed exactly as a fresh Algorithm 1 run on the updated graph.
//
// Inserting an edge that exists or deleting one that does not is a no-op,
// and inserting+deleting the same edge within one batch cancels out. Edges
// may reference vertex IDs never seen before; those vertices are created
// (the paper's vertex-insertion rule: "pretend the new vertex was an old
// vertex with all old neighbors removed").
func (s *State) Update(batch []graph.Edit) UpdateStats {
	s.epoch++
	var stats UpdateStats
	a := &s.arena
	a.begin(s.cfg.T)

	// Phase 0: apply the batch, accumulating the *net* neighbor delta per
	// vertex (+1 added, -1 removed; cancellations vanish after Finalize).
	for _, e := range batch {
		switch e.Op {
		case graph.Insert:
			s.growTo(e.U)
			s.growTo(e.V)
			if s.g.AddEdge(e.U, e.V) {
				stats.Inserted++
				a.deltas.Bump(e.U, e.V, 1)
				a.deltas.Bump(e.V, e.U, 1)
				if s.labels[e.U] == nil {
					s.initVertex(e.U)
				}
				if s.labels[e.V] == nil {
					s.initVertex(e.V)
				}
			}
		case graph.Delete:
			if s.g.RemoveEdge(e.U, e.V) {
				stats.Deleted++
				a.deltas.Bump(e.U, e.V, -1)
				a.deltas.Bump(e.V, e.U, -1)
			}
		}
	}
	a.deltas.Finalize()
	a.ensure(len(s.labels)) // the batch may have grown the ID space

	// Phase 1: handle adjacent edge changes (Algorithm 2 lines 1-12).
	// Affected vertices arrive in ascending ID order straight from the
	// sorted accumulator and are classified per label slot into the three
	// categories of Section IV-A, re-picking where required.
	a.deltas.ForEach(func(v uint32, dl DeltaList) {
		a.collect(v) // adjacency changed even if no slot repicks
		stats.Repicked += s.repickVertex(v, dl)
	})

	// Phase 2: correction propagation (Algorithm 2 lines 13-24), level by
	// level. pos < t always, so by the time level t runs every label it
	// can read is final; each slot is therefore recomputed at most once.
	T := s.cfg.T
	activeLevels := 0
	for t := 1; t <= T; t++ {
		if len(a.dirty[t]) == 0 {
			continue // idle level: the sparse schedule's zero-cost case
		}
		activeLevels++
		for i := 0; i < len(a.dirty[t]); i++ {
			v := a.dirty[t][i]
			if !a.stampAt(v, int32(t)) {
				continue // duplicate mark within this level
			}
			a.collect(v)
			stats.Touched++
			newVal := s.labels[s.src[v][t]][s.pos[v][t]]
			if newVal == s.labels[v][t] {
				continue
			}
			s.rows.Set(s.labels, v, t, newVal)
			stats.Changed++
			// Forward the change to everyone who copied this label; a
			// linear scan of the flat record list beats any per-vertex
			// index here (profiled: map-based indexing tripled Update
			// time on web graphs).
			for _, rec := range s.recv[v] {
				if rec.Pos == uint16(t) {
					a.dirty[rec.Iter] = append(a.dirty[rec.Iter], rec.Tar)
				}
			}
		}
		a.dirty[t] = a.dirty[t][:0] // recycle the queue's capacity
	}
	if activeLevels > 0 {
		stats.RoundsRun = activeLevels
		stats.LevelsSkipped = T - activeLevels
	}
	stats.Dirty = a.finishDirty()
	return stats
}

// repickVertex applies the Category 1/2/3 analysis to every label slot of
// an affected vertex. dl is the vertex's sorted net neighbor delta. Slots
// that get a new (src, pos) are marked dirty in the arena's level queues.
// It returns the number of re-picked slots. The decision rules live in
// RepickPlan, shared with the distributed driver.
func (s *State) repickVertex(v uint32, dl DeltaList) int {
	a := &s.arena
	plan := NewRepickPlan(v, dl, s.g.Neighbors(v), a.arrivals)
	a.arrivals = plan.Buf() // keep the (possibly grown) buffer for the next vertex
	if !plan.Active() {
		return 0
	}

	repicked := 0
	T := int32(s.cfg.T)
	for t := int32(1); t <= T; t++ {
		oldSrc := s.src[v][t]
		newSrc, newPos, rp := plan.Slot(s.cfg, s.epoch, t, oldSrc)
		if !rp {
			continue
		}
		if oldSrc >= 0 {
			s.recv[oldSrc] = DropRecord(s.recv[oldSrc], Record{Tar: v, Pos: s.pos[v][t], Iter: uint16(t)})
		}
		s.src[v][t] = int32(newSrc)
		s.pos[v][t] = newPos
		s.recv[newSrc] = AppendRecord(s.recv[newSrc], Record{Tar: v, Pos: newPos, Iter: uint16(t)})
		a.dirty[t] = append(a.dirty[t], v)
		repicked++
	}
	return repicked
}

// growTo extends the per-vertex arrays to cover vertex ID v.
func (s *State) growTo(v uint32) {
	for int(v) >= len(s.labels) {
		s.labels = append(s.labels, nil)
		s.src = append(s.src, nil)
		s.pos = append(s.pos, nil)
		s.recv = append(s.recv, nil)
	}
}

// MergeDirty inserts v into a canonical (sorted, deduplicated) Dirty set,
// preserving the invariant. The input slice is never aliased by callers
// that must not observe the mutation: UpdateStats.Dirty is freshly
// allocated by every Update, so in-place insertion is safe here.
func MergeDirty(dirty []uint32, v uint32) []uint32 {
	i, found := slices.BinarySearch(dirty, v)
	if found {
		return dirty
	}
	return slices.Insert(dirty, i, v)
}

// AddVertex inserts an isolated vertex (no label slots need repair: an
// isolated vertex's sequence is all its own label). ok is false if the
// vertex already existed. Even though no labels change, the vertex's
// presence bit does — the returned stats carry v in Dirty so copy-on-write
// snapshot publication reclones the shard that must now serve it.
func (s *State) AddVertex(v uint32) (UpdateStats, bool) {
	s.growTo(v)
	if !s.g.AddVertex(v) {
		return UpdateStats{}, false
	}
	if s.labels[v] == nil {
		s.initVertex(v)
	}
	return UpdateStats{Dirty: []uint32{v}}, true
}

// RemoveVertex deletes a vertex and its incident edges, repairing all
// affected labels (the paper's rule: deletion is handled by deleting the
// incident edges and then ignoring the vertex). It returns the stats of the
// induced edge-deletion batch; ok is false if the vertex was absent.
//
// Dirty always includes v itself, even when the vertex was isolated and
// the induced batch therefore empty: removing it still flips its shard's
// presence bit, which a copy-on-write snapshot must observe.
func (s *State) RemoveVertex(v uint32) (UpdateStats, bool) {
	if !s.g.HasVertex(v) {
		return UpdateStats{}, false
	}
	nbrs := s.g.Neighbors(v)
	batch := make([]graph.Edit, 0, len(nbrs))
	for _, u := range nbrs {
		batch = append(batch, graph.Edit{Op: graph.Delete, U: v, V: u})
	}
	stats := s.Update(batch)
	// After the batch no external pick references v (its former neighbors
	// all re-picked away), and v's own picks are self-picks whose records
	// live at v itself; dropping the vertex wholesale is safe.
	s.g.RemoveVertex(v)
	s.labels[v] = nil
	s.src[v] = nil
	s.pos[v] = nil
	s.recv[v] = nil
	stats.Dirty = MergeDirty(stats.Dirty, v)
	return stats, true
}
