package core

import (
	"runtime"
	"sync"

	"rslpa/internal/graph"
)

// RunParallel executes Algorithm 1 with the level loop parallelized across
// CPU cores (workers <= 0 selects GOMAXPROCS). Because every pick's random
// stream depends only on (seed, vertex, iteration) and reads only labels
// from earlier iterations, vertices within one level are embarrassingly
// parallel — the result is bit-identical to Run, which a test asserts.
//
// This is in-process parallelism for a single machine, distinct from the
// partitioned message-passing execution in internal/dist: no messages are
// exchanged, the full state is shared, and only the per-level compute is
// fanned out. The picks are accumulated per worker and merged at the end
// of each level so no locking appears on the hot path.
func RunParallel(g *graph.Graph, cfg Config, workers int) (*State, error) {
	if err := CheckT(cfg.T); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := newState(g.Clone(), cfg)
	vertices := s.g.Vertices()
	if len(vertices) == 0 {
		return s, nil
	}

	// Pre-split the vertex list into contiguous shards, one per worker.
	shards := make([][]uint32, 0, workers)
	per := (len(vertices) + workers - 1) / workers
	for off := 0; off < len(vertices); off += per {
		end := off + per
		if end > len(vertices) {
			end = len(vertices)
		}
		shards = append(shards, vertices[off:end])
	}

	type pick struct {
		v   uint32
		src uint32
		pos uint16
	}
	picks := make([][]pick, len(shards))
	var wg sync.WaitGroup
	for t := 1; t <= cfg.T; t++ {
		for si, shard := range shards {
			si, shard := si, shard
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := picks[si][:0]
				for _, v := range shard {
					src, pos := InitialPick(s.cfg, v, t, s.g.Neighbors(v))
					out = append(out, pick{v: v, src: src, pos: pos})
				}
				picks[si] = out
			}()
		}
		wg.Wait()
		// Serial merge: set the picks (labels[v][t] and src/pos) — cheap
		// relative to the draws.
		for _, out := range picks {
			for _, p := range out {
				s.setPick(p.v, t, p.src, p.pos)
			}
		}
	}
	s.buildRecords() // the same rows, in the same order, as the sequential Run
	return s, nil
}
