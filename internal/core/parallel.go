package core

import (
	"runtime"
	"sync"

	"rslpa/internal/graph"
)

// RunParallel executes Algorithm 1 on g with each level's vertices split
// across workers (workers <= 0 selects GOMAXPROCS) and returns the
// resulting State. It is the only propagation loop: Run is RunParallel with
// one worker. The graph is cloned; later mutations of g do not affect the
// State (feed them through Update instead).
//
// A pick at level t reads only labels of levels below t and writes only its
// own vertex's rows, so the vertices of one level are independent. Each
// worker owns a contiguous range of vertices and sets their picks in place;
// the wait at the end of a level is the barrier that publishes its labels
// to the next. Every pick's random stream depends only on (seed, vertex,
// iteration), so labels, picks and record rows are bit-identical at every
// worker count.
//
// This is in-process parallelism on one machine, distinct from the
// partitioned message-passing execution in internal/dist: the full state is
// shared and no messages are exchanged.
func RunParallel(g *graph.Graph, cfg Config, workers int) (*State, error) {
	if err := CheckT(cfg.T); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := newState(g.Clone(), cfg)
	vertices := s.g.Vertices()
	for t := 1; t <= cfg.T; t++ {
		fanOut(len(vertices), workers, func(lo, hi int) {
			for _, v := range vertices[lo:hi] {
				src, pos := InitialPick(s.cfg, v, t, s.g.Neighbors(v))
				s.setPick(v, t, src, pos)
			}
		})
	}
	s.buildRecords(workers)
	return s, nil
}

// fanOut splits [0, n) into at most workers contiguous ranges, calls fn on
// each concurrently and returns when every call has. The last range runs on
// the calling goroutine, so one worker starts no goroutine.
func fanOut(n, workers int, fn func(lo, hi int)) {
	per := max(1, (n+workers-1)/workers)
	var wg sync.WaitGroup
	lo := 0
	for ; lo+per < n; lo += per {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			fn(lo, lo+per)
		}(lo)
	}
	if lo < n {
		fn(lo, n)
	}
	wg.Wait()
}
