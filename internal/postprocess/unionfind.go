package postprocess

// UnionFind is a disjoint-set forest with union by size and path halving,
// used both by the threshold sweep (incremental edge insertion in
// descending weight order) and as the sequential reference for the
// distributed hash-to-min connected components.
type UnionFind struct {
	parent []int32
	size   []int32
}

// NewUnionFind returns a forest of n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int32, n), size: make([]int32, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
		uf.size[i] = 1
	}
	return uf
}

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int) int {
	p := int32(x)
	for uf.parent[p] != p {
		uf.parent[p] = uf.parent[uf.parent[p]] // path halving
		p = uf.parent[p]
	}
	return int(p)
}

// Union merges the sets of a and b; it returns the surviving root and
// whether a merge actually happened.
func (uf *UnionFind) Union(a, b int) (root int, merged bool) {
	ra, rb := uf.Find(a), uf.Find(b)
	if ra == rb {
		return ra, false
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = int32(ra)
	uf.size[ra] += uf.size[rb]
	return ra, true
}

// SizeOf returns the size of x's set.
func (uf *UnionFind) SizeOf(x int) int {
	return int(uf.size[uf.Find(x)])
}
