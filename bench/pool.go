package main

import (
	"math/rand/v2"
	"sort"

	"rslpa"
)

// newRand derives an independent deterministic stream from the run seed:
// every generated input (edit pool, hot edges, read mix) has its own salt,
// so adding a consumer never shifts another's sequence.
func newRand(seed, salt uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, salt))
}

func edgeKey(u, v uint32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

func invert(e rslpa.Edit) rslpa.Edit {
	if e.Op == rslpa.Insert {
		e.Op = rslpa.Delete
	} else {
		e.Op = rslpa.Insert
	}
	return e
}

// newPool builds the edit pool of a workload: k/2 deletions of existing
// edges and k/2 insertions of absent edges between present vertices, all
// on distinct edges, shuffled. Replayed forward against the start graph
// every edit is effective; replayed inverted afterwards every edit is
// effective again and the graph is back at its start state, so |E| stays
// stationary however long the run lasts.
func newPool(g *rslpa.Graph, rng *rand.Rand, k int) []rslpa.Edit {
	edges := g.Edges() // ascending: the pool depends on the graph, not on map order
	verts := g.Vertices()
	if k/2 > len(edges)/2 {
		k = len(edges) // small smoke graphs: never delete more than half the edges
	}
	pool := make([]rslpa.Edit, 0, k)
	// Partial Fisher–Yates over the edge list picks k/2 distinct deletions.
	for i := 0; i < k/2; i++ {
		j := i + rng.IntN(len(edges)-i)
		edges[i], edges[j] = edges[j], edges[i]
		pool = append(pool, rslpa.Edit{Op: rslpa.Delete, U: uint32(edges[i] >> 32), V: uint32(edges[i])})
	}
	chosen := make(map[uint64]bool, k/2)
	for len(pool) < k/2*2 {
		u, v := verts[rng.IntN(len(verts))], verts[rng.IntN(len(verts))]
		if u == v || g.HasEdge(u, v) || chosen[edgeKey(u, v)] {
			continue
		}
		chosen[edgeKey(u, v)] = true
		pool = append(pool, rslpa.Edit{Op: rslpa.Insert, U: u, V: v})
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// cursor walks a pool forward, then inverted, then forward again, forever.
type cursor struct {
	pool []rslpa.Edit
	pos  int // edits handed out so far
}

// at returns the i-th edit of the endless forward/inverted replay.
func (c *cursor) at(i int) rslpa.Edit {
	e := c.pool[i%len(c.pool)]
	if i/len(c.pool)%2 == 1 {
		return invert(e)
	}
	return e
}

func (c *cursor) next(n int) []rslpa.Edit {
	out := make([]rslpa.Edit, n)
	for i := range out {
		out[i] = c.at(c.pos + i)
	}
	c.pos += n
	return out
}

// unwind returns the edits that take the graph from the cursor's current
// position back to the start state: mid forward pass the applied prefix is
// inverted, mid inverted pass the not-yet-reverted suffix is.
func (c *cursor) unwind() []rslpa.Edit {
	within, odd := c.pos%len(c.pool), c.pos/len(c.pool)%2 == 1
	pending := c.pool[:within]
	if odd {
		pending = c.pool[within:]
	}
	out := make([]rslpa.Edit, len(pending))
	for i, e := range pending {
		out[i] = invert(e)
	}
	return out
}

// flapper toggles a small set of hot edges among the highest-degree
// vertices. Each toggle is effective against the running state, but a
// burst revisits the same few edges so most of it coalesces away.
type flapper struct {
	edges   [][2]uint32
	start   []bool // presence in the start graph
	present []bool // presence after the toggles handed out so far
	rng     *rand.Rand
}

func newFlapper(g *rslpa.Graph, rng *rand.Rand, hotVertices, hotEdges int) *flapper {
	verts := g.Vertices()
	sort.SliceStable(verts, func(i, j int) bool { return g.Degree(verts[i]) > g.Degree(verts[j]) })
	verts = verts[:min(hotVertices, len(verts))]
	f := &flapper{rng: rng}
	seen := make(map[uint64]bool, hotEdges)
	for len(f.edges) < hotEdges {
		u, v := verts[rng.IntN(len(verts))], verts[rng.IntN(len(verts))]
		if u == v || seen[edgeKey(u, v)] {
			continue
		}
		seen[edgeKey(u, v)] = true
		f.edges = append(f.edges, [2]uint32{u, v})
		f.start = append(f.start, g.HasEdge(u, v))
	}
	f.present = append([]bool(nil), f.start...)
	return f
}

func (f *flapper) toggle(i int) rslpa.Edit {
	op := rslpa.Insert
	if f.present[i] {
		op = rslpa.Delete
	}
	f.present[i] = !f.present[i]
	return rslpa.Edit{Op: op, U: f.edges[i][0], V: f.edges[i][1]}
}

func (f *flapper) burst(n int) []rslpa.Edit {
	out := make([]rslpa.Edit, n)
	for i := range out {
		out[i] = f.toggle(f.rng.IntN(len(f.edges)))
	}
	return out
}

func (f *flapper) unwind() []rslpa.Edit {
	var out []rslpa.Edit
	for i := range f.edges {
		if f.present[i] != f.start[i] {
			out = append(out, f.toggle(i))
		}
	}
	return out
}
