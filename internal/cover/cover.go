// Package cover defines the community cover type shared by the detection
// algorithms, the post-processing stage, and the evaluation metrics.
//
// A cover is a set of communities, each a set of vertices; vertices may
// belong to several communities (overlap) or to none. This matches the
// output format of both SLPA and rSLPA and the ground-truth format of the
// LFR benchmark.
package cover

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Cover is a set of overlapping communities over uint32 vertex IDs.
// The zero value is an empty cover ready to use.
type Cover struct {
	communities [][]uint32
}

// New returns an empty cover with room for n communities.
func New(n int) *Cover {
	return &Cover{communities: make([][]uint32, 0, n)}
}

// FromCommunities builds a cover from explicit member lists. Each community
// is copied, sorted and de-duplicated; empty communities are dropped.
func FromCommunities(comms [][]uint32) *Cover {
	c := New(len(comms))
	for _, members := range comms {
		c.Add(members)
	}
	return c
}

// Add appends a community. Members are copied, sorted and de-duplicated;
// an empty community is ignored. It returns the community's index, or -1
// if it was ignored.
func (c *Cover) Add(members []uint32) int {
	if len(members) == 0 {
		return -1
	}
	m := append([]uint32(nil), members...)
	sort.Slice(m, func(i, j int) bool { return m[i] < m[j] })
	m = dedupe(m)
	c.communities = append(c.communities, m)
	return len(c.communities) - 1
}

func dedupe(sorted []uint32) []uint32 {
	out := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Len returns the number of communities.
func (c *Cover) Len() int { return len(c.communities) }

// Community returns the members of community i (sorted, ascending). The
// returned slice is owned by the cover and must not be mutated.
func (c *Cover) Community(i int) []uint32 { return c.communities[i] }

// Communities returns all communities. The returned slices are owned by the
// cover and must not be mutated.
func (c *Cover) Communities() [][]uint32 { return c.communities }

// Sizes returns the size of each community.
func (c *Cover) Sizes() []int {
	sizes := make([]int, len(c.communities))
	for i, m := range c.communities {
		sizes[i] = len(m)
	}
	return sizes
}

// Membership returns the inverse map: vertex -> indices of the communities
// containing it.
func (c *Cover) Membership() map[uint32][]int {
	m := make(map[uint32][]int)
	for i, members := range c.communities {
		for _, v := range members {
			m[v] = append(m[v], i)
		}
	}
	return m
}

// CoveredVertices returns the number of distinct vertices that belong to at
// least one community.
func (c *Cover) CoveredVertices() int {
	seen := make(map[uint32]struct{})
	for _, members := range c.communities {
		for _, v := range members {
			seen[v] = struct{}{}
		}
	}
	return len(seen)
}

// OverlappingVertices returns the number of vertices with two or more
// memberships, and the maximum membership count.
func (c *Cover) OverlappingVertices() (count, maxMemberships int) {
	ms := make(map[uint32]int)
	for _, members := range c.communities {
		for _, v := range members {
			ms[v]++
		}
	}
	for _, n := range ms {
		if n >= 2 {
			count++
		}
		if n > maxMemberships {
			maxMemberships = n
		}
	}
	return count, maxMemberships
}

// Entropy computes the information entropy of the cover's community sizes
// relative to a graph of totalVertices vertices, exactly as Equation 1 of
// the paper: -sum_i (|C_i|/|V|) * log(|C_i|/|V|). Natural logarithm.
func (c *Cover) Entropy(totalVertices int) float64 {
	if totalVertices <= 0 {
		return 0
	}
	n := float64(totalVertices)
	h := 0.0
	for _, members := range c.communities {
		p := float64(len(members)) / n
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	return h
}

// Canonical returns the communities sorted lexicographically, useful for
// equality checks in tests.
func (c *Cover) Canonical() [][]uint32 {
	out := make([][]uint32, len(c.communities))
	copy(out, c.communities)
	sort.Slice(out, func(i, j int) bool { return lessSlice(out[i], out[j]) })
	return out
}

func lessSlice(a, b []uint32) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// Equal reports whether the two covers contain exactly the same communities
// (regardless of order).
func (c *Cover) Equal(d *Cover) bool {
	if c.Len() != d.Len() {
		return false
	}
	a, b := c.Canonical(), d.Canonical()
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// RemoveSubsets drops every community fully contained in another community,
// the cleanup the reference SLPA post-processing applies to nested label
// groups. Exact-duplicate communities are also reduced to one copy.
func (c *Cover) RemoveSubsets() *Cover {
	// Sort indices by decreasing size so a community can only be a subset
	// of one processed earlier.
	idx := make([]int, len(c.communities))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return len(c.communities[idx[a]]) > len(c.communities[idx[b]])
	})
	kept := New(len(c.communities))
	sets := make([]map[uint32]struct{}, 0, len(c.communities))
	for _, i := range idx {
		members := c.communities[i]
		subset := false
		for _, s := range sets {
			if len(members) > len(s) {
				continue
			}
			all := true
			for _, v := range members {
				if _, ok := s[v]; !ok {
					all = false
					break
				}
			}
			if all {
				subset = true
				break
			}
		}
		if subset {
			continue
		}
		set := make(map[uint32]struct{}, len(members))
		for _, v := range members {
			set[v] = struct{}{}
		}
		sets = append(sets, set)
		kept.Add(members)
	}
	return kept
}

// Read parses a cover in the common "one community per line, members
// whitespace-separated" format (the LFR ground-truth convention). Empty
// lines and '#' comments are skipped.
func Read(r io.Reader) (*Cover, error) {
	c := New(16)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		fields := strings.Fields(line)
		members := make([]uint32, 0, len(fields))
		for _, f := range fields {
			v, err := strconv.ParseUint(f, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("cover: line %d: bad vertex %q: %v", lineno, f, err)
			}
			members = append(members, uint32(v))
		}
		c.Add(members)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cover: read: %w", err)
	}
	return c, nil
}

// Write emits the cover with one community per line, members space-
// separated, in canonical order.
func (c *Cover) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, members := range c.Canonical() {
		for j, v := range members {
			if j > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatUint(uint64(v), 10)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
