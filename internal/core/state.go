// Package core implements rSLPA, the paper's primary contribution: the
// randomized Speaker-Listener Label Propagation Algorithm of Section III
// (Algorithm 1) together with the incremental Correction Propagation
// algorithm of Section IV (Algorithm 2).
//
// # The randomized propagation model
//
// After T iterations every vertex v holds a label sequence
// L_v = (l⁰_v, …, l^T_v) with l⁰_v = v. For t ≥ 1, the label l^t_v is
// obtained by uniformly picking a source neighbor src ∈ N(v) and a position
// pos ∈ [0, t), and copying l^pos_src (Theorems 2 and 3 show this is
// equivalent to SLPA's "speaker" step followed by uniform — rather than
// plurality — selection). The package stores the full choice, not just the
// value:
//
//	labels[v][t] == labels[src[v][t]][pos[v][t]]
//
// which is the invariant that makes the result *trackable* under graph
// updates. Reverse records R (one per picked label) let a changed label
// notify exactly the labels that copied it.
//
// # Incremental maintenance
//
// Update applies a batch of edge insertions/deletions and repairs the label
// matrix so that its distribution is exactly what a from-scratch run on the
// new graph would produce. Per Section IV-A, a pick survives if its source
// can still be treated as uniformly chosen from the *current* neighbor set:
// sources over deleted edges are re-picked (Category 2 / Theorem 4), and
// when neighbors were added the pick is kept only with probability
// n_u/(n_u+n_a), otherwise re-picked among the new neighbors (Category 3 /
// Theorem 5). Value changes then cascade along the records (Section IV-B).
//
// # Determinism
//
// Every random decision is drawn from a stream derived from
// (seed, epoch, vertex, iteration), so results are reproducible and
// independent of partitioning — the distributed driver in internal/dist
// produces bit-identical label matrices.
//
// Isolated vertices (the paper leaves them undefined) use the effective
// neighbor set N_eff(v) = N(v) when non-empty, else {v}: a vertex with no
// neighbors keeps talking to itself and its sequence collapses to its own
// label, which is what the post-processing expects.
package core

import (
	"fmt"

	"rslpa/internal/graph"
)

// Config configures a propagation run.
type Config struct {
	// T is the number of label propagation iterations. The paper uses
	// T=200 for rSLPA (Figure 7a shows convergence for T >= 200).
	T int
	// Seed drives all randomness; identical Config + graph => identical
	// result.
	Seed uint64
}

// DefaultT is the iteration count the paper settles on for rSLPA.
const DefaultT = 200

// MaxT is the largest iteration count a State can hold: pick positions and
// record iterations are stored as uint16 (see Record and State).
const MaxT = 1<<16 - 1

// TRangeError reports an iteration count outside [1, MaxT].
type TRangeError struct{ T int }

func (e *TRangeError) Error() string {
	return fmt.Sprintf("core: config T=%d outside [1, %d]", e.T, MaxT)
}

// CheckT returns a *TRangeError unless t is an iteration count in [1, MaxT].
func CheckT(t int) error {
	if t <= 0 || t > MaxT {
		return &TRangeError{T: t}
	}
	return nil
}

// Record is a reverse edge of the label propagation forest: it lives at the
// *source* vertex and says "receiver Tar picked my label at position Pos to
// be its label for iteration Iter" (the set R^Pos in Section IV-B). It is
// 8 bytes: T ≤ MaxT bounds both Pos and Iter. Pos duplicates the target's
// pos[Tar][Iter], but the cascades select a source's records by position,
// and reading it there would cost a random access per record.
type Record struct {
	Tar  uint32 // receiving vertex
	Pos  uint16 // position of the picked label at the source
	Iter uint16 // iteration at which Tar picked it (always > Pos)
}

// State is the complete, updatable result of a propagation run: the label
// matrix, the (src, pos) choices behind it, the reverse records, and the
// graph it was computed on. Create one with Run or RunParallel; evolve it
// with Update.
// A State is not safe for concurrent mutation.
//
// Per (vertex, iteration) it holds a u32 label, an i32 src, a u16 pos and
// one 8-byte Record at the source: 18 bytes plus the record rows' headroom
// (none after Run or a load; see AppendRecord for growth under Update).
type State struct {
	cfg Config
	g   *graph.Graph

	labels [][]uint32 // labels[v][0..T]; nil for never-seen vertex IDs
	src    [][]int32  // src[v][t]; -1 = no recorded pick (fresh vertex)
	pos    [][]uint16 // pos[v][t]; parallel to src, 0 under the -1 sentinel
	recv   [][]Record // records stored at the source vertex
	rows   RowStamps  // copy-on-write stamps of the label rows (see Freeze)

	epoch uint64 // update-batch counter, part of repick stream derivation

	// arena is the reusable Update scratch (see arena.go). It carries no
	// observable state — Clone deliberately leaves the copy's arena zero —
	// so checkpoints and snapshots are unaffected.
	arena updArena
}

// Run executes Algorithm 1 on g on the calling goroutine and returns the
// resulting State: RunParallel with one worker. The graph is cloned; later
// mutations of g do not affect the State (feed them through Update
// instead).
func Run(g *graph.Graph, cfg Config) (*State, error) { return RunParallel(g, cfg, 1) }

// newState allocates the per-vertex arrays of every vertex of g, with the
// initial label l⁰_v = v and sentinel picks; the record rows stay nil until
// buildRecords.
func newState(g *graph.Graph, cfg Config) *State {
	n := g.MaxVertexID()
	s := &State{cfg: cfg, g: g}
	s.labels = make([][]uint32, n)
	s.src = make([][]int32, n)
	s.pos = make([][]uint16, n)
	s.recv = make([][]Record, n)
	g.ForEachVertex(func(v uint32) { s.initVertex(v) })
	return s
}

// initVertex allocates the per-vertex arrays with the initial label
// l⁰_v = v and sentinel picks.
func (s *State) initVertex(v uint32) {
	t := s.cfg.T
	labels := make([]uint32, t+1)
	srcs := make([]int32, t+1)
	for i := range labels {
		labels[i] = v
		srcs[i] = -1
	}
	s.labels[v] = labels
	s.src[v] = srcs
	s.pos[v] = make([]uint16, t+1)
}

// setPick sets vertex v's pick for iteration t to (src, pos) and copies the
// label value. The reverse record is left to buildRecords.
func (s *State) setPick(v uint32, t int, src uint32, pos uint16) {
	s.labels[v][t] = s.labels[src][pos]
	s.src[v][t] = int32(src)
	s.pos[v][t] = pos
}

// buildRecords derives every reverse record from the picks, sizing each
// source's row exactly: one sweep counts the picks per source, a second
// fills the rows in (iteration, vertex) order — the order Algorithm 1
// installs them in. Each of the workers owns a contiguous range of source
// IDs and writes only those rows, so the rows are the same at every worker
// count.
func (s *State) buildRecords(workers int) {
	vertices := s.g.Vertices()
	fanOut(len(s.recv), workers, func(lo, hi int) {
		count := make([]int32, hi-lo)
		for _, v := range vertices {
			for _, src := range s.src[v][1:] {
				if int(src) >= lo && int(src) < hi {
					count[int(src)-lo]++
				}
			}
		}
		for i, n := range count {
			if n > 0 {
				s.recv[lo+i] = make([]Record, 0, n)
			}
		}
		for t := 1; t <= s.cfg.T; t++ {
			for _, v := range vertices {
				if src := int(s.src[v][t]); src >= lo && src < hi {
					s.recv[src] = append(s.recv[src], Record{Tar: v, Pos: s.pos[v][t], Iter: uint16(t)})
				}
			}
		}
	})
}

// AppendRecord appends rec to a record row. A full row grows by
// max(4, len/8) rather than append's doubling: rows are sized exactly at
// construction, and doubling on the first Update append would hand back
// most of that saving. Every record append after construction, in both
// engines, goes through here.
func AppendRecord(row []Record, rec Record) []Record {
	if len(row) == cap(row) {
		grown := make([]Record, len(row), len(row)+max(4, len(row)/8))
		copy(grown, row)
		row = grown
	}
	return append(row, rec)
}

// DropRecord removes rec from a record row by swap-removal. It is a no-op
// if the record is absent (fresh-vertex sentinels).
func DropRecord(row []Record, rec Record) []Record {
	for i := range row {
		if row[i] == rec {
			last := len(row) - 1
			row[i] = row[last]
			return row[:last]
		}
	}
	return row
}

// RowStamps makes a label matrix's rows copy-on-write across Freeze
// calls, so a reader may keep the row slices it was handed while the
// matrix moves on. stamp[v] is the freeze generation in which row v was
// last made private. A row stamped before the current generation may be
// held by a reader and is never written again: Set first replaces it with
// a fresh exact-length copy (cap == len). Until the first Freeze every row
// is private and Set writes in place. After Run or Propagate, both engines
// write label values only through Set.
type RowStamps struct {
	gen   uint32   // Freeze count; 0 while never frozen
	stamp []uint32 // grown on demand; a missing or older stamp means shared
}

// Freeze promises that no row of the matrix as it stands is written
// again: the next write to each goes to a private copy.
func (r *RowStamps) Freeze() {
	r.gen++
	if r.gen == 0 { // wraparound: no old stamp may alias the new generation
		clear(r.stamp)
		r.gen = 1
	}
}

// Set writes val at rows[v][t], first giving row v a private copy if it
// was frozen.
func (r *RowStamps) Set(rows [][]uint32, v uint32, t int, val uint32) {
	if r.gen != 0 && (int(v) >= len(r.stamp) || r.stamp[v] != r.gen) {
		r.own(rows, v)
	}
	rows[v][t] = val
}

// own replaces row v with a private exact-length copy.
func (r *RowStamps) own(rows [][]uint32, v uint32) {
	if int(v) >= len(r.stamp) {
		r.stamp = append(r.stamp, make([]uint32, len(rows)-len(r.stamp))...)
	}
	row := make([]uint32, len(rows[v]))
	copy(row, rows[v])
	rows[v] = row
	r.stamp[v] = r.gen
}

// Freeze promises that no row Labels has returned so far is written
// again; the next Update that changes such a row writes a copy. A State
// that is never frozen updates its rows in place.
func (s *State) Freeze() { s.rows.Freeze() }

// T returns the configured iteration count.
func (s *State) T() int { return s.cfg.T }

// Seed returns the configured seed.
func (s *State) Seed() uint64 { return s.cfg.Seed }

// Epoch returns the number of Update batches applied so far.
func (s *State) Epoch() uint64 { return s.epoch }

// Graph returns the State's current graph. The caller must not mutate it;
// use Update.
func (s *State) Graph() *graph.Graph { return s.g }

// Labels returns vertex v's label sequence (length T+1, cap == len). The
// slice is owned by the State; callers must not mutate it. Update may
// write it in place until the next Freeze and never after. It returns nil
// for vertices not in the graph.
func (s *State) Labels(v uint32) []uint32 {
	if int(v) >= len(s.labels) || !s.g.HasVertex(v) {
		return nil
	}
	return s.labels[v]
}

// Pick returns the recorded (src, pos) choice behind vertex v's label at
// iteration t; ok is false for t = 0, fresh sentinels, or absent vertices.
func (s *State) Pick(v uint32, t int) (src uint32, pos int, ok bool) {
	if int(v) >= len(s.src) || t <= 0 || t >= len(s.src[v]) {
		return 0, 0, false
	}
	if s.src[v][t] < 0 {
		return 0, 0, false
	}
	return uint32(s.src[v][t]), int(s.pos[v][t]), true
}

// Records returns the reverse records stored at vertex v. The slice is
// owned by the State.
func (s *State) Records(v uint32) []Record {
	if int(v) >= len(s.recv) {
		return nil
	}
	return s.recv[v]
}

// Tables is a State's graph and per-vertex tables as HandOff gives them
// away, indexed by vertex ID with the State's conventions.
type Tables struct {
	Graph  *graph.Graph
	Labels [][]uint32
	Src    [][]int32
	Pos    [][]uint16
	Recv   [][]Record
}

// HandOff gives the State's graph and tables to the caller without copying
// them and empties the State, so nothing can write a row the caller now
// owns. Only T, Seed and Epoch stay usable.
func (s *State) HandOff() Tables {
	t := Tables{Graph: s.g, Labels: s.labels, Src: s.src, Pos: s.pos, Recv: s.recv}
	s.g, s.labels, s.src, s.pos, s.recv = nil, nil, nil, nil, nil
	s.rows, s.arena = RowStamps{}, updArena{}
	return t
}

// Clone returns a deep copy of the State, useful for comparing incremental
// updates against from-scratch recomputation in tests.
func (s *State) Clone() *State {
	c := &State{cfg: s.cfg, g: s.g.Clone(), epoch: s.epoch}
	c.labels = make([][]uint32, len(s.labels))
	c.src = make([][]int32, len(s.src))
	c.pos = make([][]uint16, len(s.pos))
	c.recv = make([][]Record, len(s.recv))
	for v := range s.labels {
		if s.labels[v] != nil {
			c.labels[v] = append(make([]uint32, 0, len(s.labels[v])), s.labels[v]...)
			c.src[v] = append([]int32(nil), s.src[v]...)
			c.pos[v] = append([]uint16(nil), s.pos[v]...)
		}
		if s.recv[v] != nil {
			c.recv[v] = append([]Record(nil), s.recv[v]...)
		}
	}
	return c
}
