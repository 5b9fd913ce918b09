package graph

// Snapshot sharding. The streaming service publishes copy-on-write
// snapshots: the dense vertex ID space is partitioned into fixed-size
// shards of ShardSize IDs, a snapshot is an immutable slice of shard
// pointers, and publishing a new epoch clones only the shards that the
// applied batch dirtied — every clean shard is shared structurally with
// the previous snapshot. This file provides the shard geometry and the
// frozen per-shard adjacency view; the label rows ride alongside in the
// service's snapshot type.

const (
	// ShardBits is log2 of the snapshot shard size.
	ShardBits = 12
	// ShardSize is the number of vertex IDs covered by one snapshot
	// shard (4096): small enough that a 2-edit batch republishes
	// kilobytes, large enough that shard headers stay negligible.
	ShardSize = 1 << ShardBits
)

// ShardOf returns the index of the snapshot shard covering vertex v.
func ShardOf(v VertexID) int { return int(v >> ShardBits) }

// NumShards returns the number of shards covering a dense ID space of
// the given size (MaxVertexID).
func NumShards(maxID int) int { return (maxID + ShardSize - 1) / ShardSize }

// AdjShard is the frozen adjacency of one snapshot shard: a deep copy of
// the presence flags and neighbor lists of the vertices in
// [Base, Base+ShardSize), taken at a single instant. It is immutable
// after CloneShard returns and safe to share between snapshots.
//
// The slices cover [Base, Base+len(Exists)); an ID space that grew after
// the clone leaves the tail uncovered, which is correct: those IDs were
// absent when the shard was frozen, and adding one later dirties the
// shard (forcing a re-clone) because every vertex addition rides an edge
// edit whose endpoints are in the update's dirty set.
type AdjShard struct {
	Base   VertexID
	Exists []bool
	Adj    [][]VertexID

	Present   int // present vertices in the shard
	HalfEdges int // sum of their degrees (each edge counted once per endpoint)
}

// CloneShard freezes snapshot shard idx of g: presence and neighbor
// lists are copied verbatim (preserving adjacency order, which keeps
// shard-view edge iteration bit-compatible with the graph's own), and
// the per-shard vertex/half-edge tallies are computed so a snapshot can
// total its counts in O(#shards). The tally pass sizes one backing array
// for every neighbor list of the shard; each list is a window into it
// with cap == len, so the clone costs a constant number of allocations
// however many vertices the shard holds.
func (g *Graph) CloneShard(idx int) *AdjShard {
	base := idx * ShardSize
	sh := &AdjShard{Base: VertexID(base)}
	hi := base + ShardSize
	if hi > len(g.adj) {
		hi = len(g.adj)
	}
	if hi <= base {
		return sh
	}
	sh.Exists = append([]bool(nil), g.exists[base:hi]...)
	sh.Adj = make([][]VertexID, hi-base)
	for v := base; v < hi; v++ {
		if g.exists[v] {
			sh.Present++
			sh.HalfEdges += len(g.adj[v])
		}
	}
	slab := make([]VertexID, sh.HalfEdges)
	for v := base; v < hi; v++ {
		if n := len(g.adj[v]); n > 0 && g.exists[v] {
			copy(slab, g.adj[v])
			sh.Adj[v-base] = slab[:n:n]
			slab = slab[n:]
		}
	}
	return sh
}

// Has reports whether vertex v (a global ID) is present in the frozen
// shard. IDs outside the frozen coverage are absent.
func (sh *AdjShard) Has(v VertexID) bool {
	off := int(v - sh.Base)
	return off >= 0 && off < len(sh.Exists) && sh.Exists[off]
}

// Neighbors returns the frozen neighbor list of vertex v (nil for absent
// vertices). The slice is owned by the shard; do not mutate it.
func (sh *AdjShard) Neighbors(v VertexID) []VertexID {
	if !sh.Has(v) {
		return nil
	}
	return sh.Adj[v-sh.Base]
}

// Degree returns the frozen degree of vertex v (0 if absent).
func (sh *AdjShard) Degree(v VertexID) int { return len(sh.Neighbors(v)) }
