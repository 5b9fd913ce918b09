package core

import "fmt"

// Validate checks every internal invariant of the State:
//
//  1. consistency: labels[v][t] == labels[src[v][t]][pos[v][t]] with
//     pos[v][t] < t, for every vertex and iteration;
//  2. legality: src[v][t] is a current neighbor of v (or v itself when v is
//     isolated, or the -1 sentinel on a still-fresh slot whose label must
//     then be v's own and whose pos is 0);
//  3. record symmetry: vertex tar has pick (src=s, pos=p) at iteration t if
//     and only if s's record list contains exactly one {p, tar, t} entry.
//
// Together these state that the label matrix could have been produced by
// Algorithm 1 on the *current* graph with some series of random draws —
// the correctness contract of Correction Propagation. O((|V|+|E|)·T); for
// tests.
func (s *State) Validate() error {
	T := s.cfg.T
	type recKey struct {
		src uint32
		rec Record
	}
	want := make(map[recKey]int)

	var failure error
	s.g.ForEachVertex(func(v uint32) {
		if failure != nil {
			return
		}
		if int(v) >= len(s.labels) || s.labels[v] == nil {
			failure = fmt.Errorf("core: vertex %d in graph but has no label state", v)
			return
		}
		if got := s.labels[v][0]; got != v {
			failure = fmt.Errorf("core: vertex %d initial label is %d", v, got)
			return
		}
		nbrs := s.g.Neighbors(v)
		for t := 1; t <= T; t++ {
			sv, pv := s.src[v][t], s.pos[v][t]
			if sv < 0 {
				// Fresh sentinel: only legal while the sequence is the
				// vertex's own label (isolated since creation).
				if s.labels[v][t] != v || pv != 0 {
					failure = fmt.Errorf("core: vertex %d iter %d: sentinel pick with label %d (want %d), pos %d (want 0)",
						v, t, s.labels[v][t], v, pv)
					return
				}
				continue
			}
			if int(pv) >= t {
				failure = fmt.Errorf("core: vertex %d iter %d: pos %d out of [0,%d)", v, t, pv, t)
				return
			}
			su := uint32(sv)
			if su == v {
				if len(nbrs) != 0 {
					failure = fmt.Errorf("core: vertex %d iter %d: self-pick but degree %d > 0", v, t, len(nbrs))
					return
				}
			} else if !s.g.HasEdge(v, su) {
				failure = fmt.Errorf("core: vertex %d iter %d: src %d is not a neighbor", v, t, su)
				return
			}
			if s.labels[v][t] != s.labels[su][pv] {
				failure = fmt.Errorf("core: vertex %d iter %d: label %d != source %d@%d label %d",
					v, t, s.labels[v][t], su, pv, s.labels[su][pv])
				return
			}
			want[recKey{su, Record{Tar: v, Pos: pv, Iter: uint16(t)}}]++
		}
	})
	if failure != nil {
		return failure
	}

	// Record symmetry: the stored records must match the picks exactly.
	total := 0
	for v := range s.recv {
		for _, rec := range s.recv[v] {
			k := recKey{uint32(v), rec}
			if want[k] == 0 {
				return fmt.Errorf("core: stale record at %d: %+v", v, rec)
			}
			want[k]--
			total++
		}
	}
	expected := 0
	for _, n := range want {
		expected += n
	}
	if expected != 0 {
		return fmt.Errorf("core: %d picks missing their reverse record", expected)
	}
	_ = total
	return nil
}

// EqualLabels reports whether two States hold identical label matrices and
// picks over the same vertex set (record order is ignored; it is the only
// part of a State that legitimately differs between the sequential and
// distributed drivers).
func (s *State) EqualLabels(o *State) bool {
	if s.cfg.T != o.cfg.T || !s.g.Equal(o.g) {
		return false
	}
	equal := true
	s.g.ForEachVertex(func(v uint32) {
		if !equal {
			return
		}
		a, b := s.labels[v], o.labels[v]
		if len(a) != len(b) {
			equal = false
			return
		}
		for t := range a {
			if a[t] != b[t] || s.src[v][t] != o.src[v][t] || s.pos[v][t] != o.pos[v][t] {
				equal = false
				return
			}
		}
	})
	return equal
}
