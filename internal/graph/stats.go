package graph

import (
	"fmt"
	"strings"
)

// Stats summarizes a graph with the statistics the paper reports for its
// real-world dataset (Table II) plus a few that the generators' tests use.
type Stats struct {
	Vertices  int
	Edges     int
	AvgDegree float64
	MaxDegree int
	MinDegree int
	Isolated  int // vertices with degree 0
}

// ComputeStats scans the graph once and returns its Stats.
func (g *Graph) ComputeStats() Stats {
	s := Stats{Vertices: g.n, Edges: g.m}
	if g.n == 0 {
		return s
	}
	s.MinDegree = int(^uint(0) >> 1)
	for v, ok := range g.exists {
		if !ok {
			continue
		}
		d := len(g.adj[v])
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d == 0 {
			s.Isolated++
		}
	}
	s.AvgDegree = 2 * float64(g.m) / float64(g.n)
	return s
}

// String formats the statistics as a small aligned table in the spirit of
// the paper's Table II.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# nodes      %d\n", s.Vertices)
	fmt.Fprintf(&b, "# edges      %d\n", s.Edges)
	fmt.Fprintf(&b, "avg. degree  %.3f\n", s.AvgDegree)
	fmt.Fprintf(&b, "max degree   %d\n", s.MaxDegree)
	fmt.Fprintf(&b, "min degree   %d\n", s.MinDegree)
	fmt.Fprintf(&b, "isolated     %d", s.Isolated)
	return b.String()
}
