package core

import (
	"rslpa/internal/rng"
)

// This file isolates the two random decision rules of the paper as pure
// functions of (Config, epoch, vertex, iteration): the Algorithm 1 pick and
// the Section IV-A repick categories. The sequential State and the
// distributed driver in internal/dist both call these, which is what makes
// their label matrices bit-identical — neither side owns a private copy of
// the randomness.

// InitialPick draws vertex v's Algorithm 1 pick for iteration t from its
// effective neighbor set (nbrs when non-empty, else {v}). The draw is a
// pure function of (cfg.Seed, v, t) and the order of nbrs.
func InitialPick(cfg Config, v uint32, t int, nbrs []uint32) (src uint32, pos uint16) {
	stream := rng.StreamOf(cfg.Seed, 0, uint64(v), uint64(t))
	if len(nbrs) == 0 {
		src = v // effective neighbor set {v}
	} else {
		src = nbrs[stream.Intn(len(nbrs))]
	}
	pos = uint16(stream.Intn(t))
	return src, pos
}

// RepickPlan captures the Section IV-A neighborhood-change analysis for one
// affected vertex of an update batch. Build one with NewRepickPlan, then ask
// Slot for every label slot.
type RepickPlan struct {
	v        uint32
	delta    DeltaList
	newNbrs  []uint32
	oldDeg   int
	newDeg   int
	nu       int      // |oldEff ∩ newEff| (Theorem 5's n_u)
	arrivals []uint32 // newEff \ oldEff, in the order Category 3 indexes them
	buf      []uint32 // the (possibly grown) caller buffer, for recycling
	active   bool
}

// NewRepickPlan classifies vertex v's neighborhood change. delta is the net
// neighbor change (+1 added, -1 removed, sorted ascending, with exact
// cancellations already dropped); newNbrs is the post-update adjacency in
// live (graph-owned) order, which the category draws index into. buf is a
// reusable scratch slice for the arrival list (may be nil); the possibly
// grown buffer is kept in the plan so callers can recycle it via Buf.
func NewRepickPlan(v uint32, delta DeltaList, newNbrs []uint32, buf []uint32) RepickPlan {
	p := RepickPlan{v: v, delta: delta, newNbrs: newNbrs, newDeg: len(newNbrs), buf: buf[:0]}
	removedCount := 0
	for _, e := range delta {
		if e.D > 0 {
			p.buf = append(p.buf, e.Nbr) // ascending: delta is sorted
		} else {
			removedCount++
		}
	}
	added := p.buf
	p.oldDeg = p.newDeg - len(added) + removedCount

	// Effective-set bookkeeping (N_eff = {v} when the vertex is isolated).
	switch {
	case p.oldDeg > 0 && p.newDeg > 0:
		p.nu = p.newDeg - len(added)
		p.arrivals = added
	case p.oldDeg == 0 && p.newDeg > 0:
		p.nu = 0
		p.arrivals = p.newNbrs // oldEff was {v}; every current neighbor is new
	case p.oldDeg > 0 && p.newDeg == 0:
		p.nu = 0
		p.buf = append(p.buf[:0], v) // newEff is {v}
		p.arrivals = p.buf
	default:
		return p // {v} -> {v}: nothing changed
	}
	p.active = true
	return p
}

// Buf returns the plan's scratch buffer (length zero) for reuse by the next
// plan. It never aliases graph-owned adjacency.
func (p *RepickPlan) Buf() []uint32 { return p.buf[:0] }

// Active reports whether any slot of the vertex can need repicking.
func (p *RepickPlan) Active() bool { return p.active }

// Slot applies the Category 1/2/3 rules to label slot t given its current
// source (oldSrc < 0 is the fresh-vertex sentinel). repicked is false when
// the old pick survives (Category 1, or a kept Category 3 pick per
// Theorem 4).
func (p *RepickPlan) Slot(cfg Config, epoch uint64, t int32, oldSrc int32) (newSrc uint32, newPos uint16, repicked bool) {
	removed := oldSrc < 0 || // fresh-vertex sentinel: must draw now
		p.oldDeg == 0 || // src was the {v} placeholder, eff set replaced
		p.newDeg == 0 || // all real neighbors gone
		p.delta.Of(uint32(oldSrc)) < 0 // picked through a deleted edge

	switch {
	case removed:
		// Category 2 (deleted source) or a fresh slot: pick a new label
		// uniformly from all current effective neighbors.
		stream := rng.StreamOf(cfg.Seed, epoch, uint64(p.v), uint64(t))
		if p.newDeg == 0 {
			newSrc = p.v
			newPos = uint16(stream.Intn(int(t)))
		} else {
			newSrc = p.newNbrs[stream.Intn(p.newDeg)]
			newPos = uint16(stream.Intn(int(t)))
		}
		return newSrc, newPos, true
	case len(p.arrivals) > 0:
		// Category 3 (Theorem 5): keep the pick with probability
		// nu/(nu+na); otherwise pick uniformly among the arrivals. A single
		// uniform draw over nu+na outcomes realizes both branches exactly.
		stream := rng.StreamOf(cfg.Seed, epoch, uint64(p.v), uint64(t))
		r := stream.Intn(p.nu + len(p.arrivals))
		if r < p.nu {
			return 0, 0, false // kept unchanged (Theorem 4 applies)
		}
		newSrc = p.arrivals[r-p.nu]
		newPos = uint16(stream.Intn(int(t)))
		return newSrc, newPos, true
	default:
		return 0, 0, false // Category 1: nothing relevant changed
	}
}
