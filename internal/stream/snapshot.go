package stream

import (
	"sync"
	"sync/atomic"
	"time"

	"rslpa/internal/core"
	"rslpa/internal/graph"
	"rslpa/internal/obs"
	"rslpa/internal/postprocess"
)

// snapShard is one immutable shard of a snapshot: the frozen adjacency of
// the vertices in its ID range plus their label rows, indexed by the same
// local offset. The rows are the detector's own slices, frozen by
// Detector.Freeze when the shard was captured: the detector writes a
// changed row to a copy, never to a row a snapshot holds. Shards are never
// mutated after construction, so consecutive snapshots share every shard
// the intervening batch did not dirty.
type snapShard struct {
	adj    *graph.AdjShard
	labels [][]uint32 // labels[v-base]; nil for absent vertex IDs
}

// cloneShard captures snapshot shard idx of det's current state: the
// adjacency via graph.CloneShard and the row spine of every present
// vertex's label sequence, one slice header per vertex and no label
// copied. The caller freezes det once the snapshot is captured.
func cloneShard(det Detector, g *graph.Graph, idx int) *snapShard {
	a := g.CloneShard(idx)
	sh := &snapShard{adj: a, labels: make([][]uint32, len(a.Exists))}
	for off, ok := range a.Exists {
		if ok {
			sh.labels[off] = det.Labels(a.Base + uint32(off))
		}
	}
	return sh
}

// Snapshot is an immutable, epoch-versioned view of the detection state,
// published copy-on-write: the dense vertex ID space is cut into
// fixed-size shards (graph.ShardSize IDs each) and a snapshot is an epoch
// plus an immutable slice of shard pointers. Publishing epoch N+1 clones
// only the shards covering the batch's dirty vertices
// (core.UpdateStats.Dirty — effective-edit endpoints plus every vertex
// whose label row changed); every clean shard is shared structurally with
// epoch N. No label is copied to publish: a shard keeps the detector's
// own row slices, which Detector.Freeze keeps the detector from writing
// again (a changed row goes to a copy inside Update). Everything a query
// can ask — labels,
// communities, membership — is answered from the frozen shards, so a
// snapshot stays internally consistent no matter how far the live
// detector advances, and readers on one snapshot share a single memoized
// extraction and a single rendered GET /communities body: its cover.
type Snapshot struct {
	*cover
	shards []*snapShard
	pcfg   postprocess.Config
	last   core.UpdateStats // the batch that produced this epoch

	republished int // shards cloned to publish this snapshot
	// allDirty marks a snapshot whose changes since the previous epoch are
	// not described by last.Dirty (the bootstrap, and the full-clone
	// fallback for a detector that reported no dirty set).
	allDirty bool

	// ext is the service-owned extraction state every epoch's memoized
	// extraction shares: the scratch pool and the weight table carried
	// from one epoch's extraction to the next. Nil on a snapshot built
	// outside a service.
	ext *extraction

	once   sync.Once
	member map[uint32][]int // off the cover: only a snapshot answers /vertex/{v}
	work   extractWork
}

// cover is what GET /communities serves of one epoch. The evolution
// window retains covers, not snapshots, so a snapshot is garbage once it
// stops being the head and no in-flight reader holds it. src points back
// to the snapshot until its extraction fills res: every epoch the window
// appends was extracted first, except a restored BaseEpoch, which stays
// lazy and extracts through src on its first read.
type cover struct {
	epoch  uint64
	nv, ne int // vertex/edge totals, summed from the shards at publish
	src    atomic.Pointer[Snapshot]
	res    *postprocess.Result
	err    error

	render sync.Once
	body   []byte // the GET /communities body, encoded by the first request
}

// extraction is what a service's snapshots share to extract communities:
// a pool of scratches, so the per-vertex tables are reused between epochs
// instead of reallocated, and one table of edge-weight numerators anchored
// at the last epoch extracted. Extracting the epoch right after the anchor
// re-weighs only the edges with an endpoint in that snapshot's dirty set;
// every other case — the first extraction, a skipped epoch, a full-clone
// publish — rebuilds the table through the same routine with every vertex
// dirty. A snapshot older than the anchor (one a reader held, or a
// restored BaseEpoch read late) weighs its edges in its scratch's private
// table and leaves the shared one alone.
//
// demand is how the maintenance goroutine knows whether anyone reads: a
// reader's Communities or Membership sets it, and each publish consumes
// it (readersKeepPace). With last, the duration of the most recent
// extraction, it decides whether a publish extracts the new epoch before
// the swap (Service.extractBeforeSwap). A service nobody reads never
// extracts and never builds the table.
type extraction struct {
	scratch  sync.Pool // of *postprocess.ExtractScratch
	demand   atomic.Bool
	readPrev bool         // the previous publish consumed a demand; maintenance goroutine only
	last     atomic.Int64 // nanoseconds the most recent extraction took

	mu      sync.Mutex // guards the table and its anchor
	weights postprocess.WeightTable
	at      uint64 // epoch the table holds; meaningless while the table is still its invalid zero value

	seconds    *obs.Histogram
	edges      *obs.Counter
	reweighted *obs.Counter
}

// extractWork is what one snapshot's extraction cost: the edges it
// emitted and how many of them it had to re-weigh.
type extractWork struct {
	edges, reweighted int
}

// newExtraction builds a service's extraction state, registering its
// instruments in r (nil: uninstrumented).
func newExtraction(r *obs.Registry) *extraction {
	x := &extraction{
		seconds: r.Histogram("rslpa_stream_extract_seconds",
			"Community extraction latency per snapshot, wherever it ran (maintenance goroutine before the swap, or the epoch's first reader).",
			obs.LatencyBuckets),
		edges: r.Counter("rslpa_stream_extract_edges_total",
			"Edges emitted into community extraction."),
		reweighted: r.Counter("rslpa_stream_extract_edges_reweighted_total",
			"Edges whose weight extraction recomputed; the rest were reused from the previous epoch's extraction."),
	}
	x.scratch.New = func() any { return new(postprocess.ExtractScratch) }
	return x
}

// noteRead records that a reader asked for communities. Nil-safe: a
// snapshot built outside a service has no extraction state to tell.
func (x *extraction) noteRead() {
	if x != nil && !x.demand.Load() { // skip the store, and its cache-line write, while already set
		x.demand.Store(true)
	}
}

// readersKeepPace consumes the read demand at a publish and reports
// whether the last two epochs were both read while each was the newest.
// Readers that keep pace with the publishes will read the next epoch too;
// one that polls less often than the service publishes would leave an
// extraction made for it unused, and lands on a later epoch instead.
// Maintenance goroutine only.
func (x *extraction) readersKeepPace() bool {
	read := x.demand.Swap(false)
	paced := read && x.readPrev
	x.readPrev = read
	return paced
}

// weigh produces sn's weighted edges in sc's buffer and reports how many
// it re-weighed, going through the shared table unless sn is older than
// its anchor.
func (x *extraction) weigh(sn *Snapshot, sc *postprocess.ExtractScratch) ([]postprocess.WeightedEdge, int) {
	x.mu.Lock()
	if sn.epoch < x.at {
		x.mu.Unlock()
		edges := sc.EdgeWeights(sn, sn.Labels, sn.pcfg.Metric)
		return edges, len(edges)
	}
	defer x.mu.Unlock()
	// Before the first extraction at is 0 and this may let an epoch-1
	// snapshot through as "next"; the table is then still invalid and
	// weighs every edge regardless.
	if sn.epoch != x.at+1 || sn.allDirty {
		x.weights.Reset()
	}
	x.at = sn.epoch
	return sc.Reweigh(&x.weights, sn, sn.Labels, sn.pcfg.Metric, sn.last.Dirty)
}

// newSnapshot captures det's current state in full (every shard cloned)
// and freezes det: the epoch-0 bootstrap and the fallback when no dirty
// set is available. It must only be called from the maintenance goroutine
// (or before the service starts), between batches.
func newSnapshot(epoch uint64, det Detector, pcfg postprocess.Config, last core.UpdateStats) *Snapshot {
	g := det.Graph()
	sn := &Snapshot{
		cover:  &cover{epoch: epoch},
		shards: make([]*snapShard, graph.NumShards(g.MaxVertexID())),
		pcfg:   pcfg,
		last:   last,
	}
	for i := range sn.shards {
		sn.shards[i] = cloneShard(det, g, i)
	}
	det.Freeze()
	sn.republished = len(sn.shards)
	sn.allDirty = true
	sn.total()
	return sn
}

// nextSnapshot publishes det's state after one applied batch as a
// copy-on-write successor of prev: only the shards covering dirty
// vertices (plus any shards the ID space grew into) are recloned, the
// rest are shared with prev, and det is frozen again. The caller
// guarantees dirty covers every vertex whose adjacency or labels changed —
// for the library detectors that is UpdateStats.Dirty, pinned by the
// epoch-hash-equivalence tests.
func nextSnapshot(prev *Snapshot, det Detector, dirty []uint32, last core.UpdateStats) *Snapshot {
	g := det.Graph()
	sn := &Snapshot{
		cover:  &cover{epoch: prev.epoch + 1},
		shards: make([]*snapShard, graph.NumShards(g.MaxVertexID())),
		pcfg:   prev.pcfg,
		last:   last,
		ext:    prev.ext,
	}
	copy(sn.shards, prev.shards) // ID space never shrinks
	reclone := make([]bool, len(sn.shards))
	for _, v := range dirty {
		reclone[graph.ShardOf(v)] = true
	}
	// Shards beyond prev's coverage are new; their vertices are dirty by
	// construction (they were just created), but be explicit.
	for i := len(prev.shards); i < len(sn.shards); i++ {
		reclone[i] = true
	}
	for i, ok := range reclone {
		if ok {
			sn.shards[i] = cloneShard(det, g, i)
			sn.republished++
		}
	}
	det.Freeze()
	sn.total()
	return sn
}

// total sums the per-shard tallies into the snapshot's vertex and edge
// counts: O(#shards), not O(n). Each undirected edge contributes one
// half-edge at each endpoint's shard (endpoints always go dirty
// together, so the halves stay symmetric across republishes).
func (sn *Snapshot) total() {
	half := 0
	for _, sh := range sn.shards {
		sn.nv += sh.adj.Present
		half += sh.adj.HalfEdges
	}
	sn.ne = half / 2
	sn.src.Store(sn) // until extract fills the cover
}

// shardFor returns the shard covering v, or nil when v is beyond the
// snapshot's ID space.
func (sn *Snapshot) shardFor(v uint32) *snapShard {
	if i := graph.ShardOf(v); i < len(sn.shards) {
		return sn.shards[i]
	}
	return nil
}

// Epoch returns the number of batches applied before this snapshot was
// taken. Epoch 0 is the state the service started from.
func (sn *Snapshot) Epoch() uint64 { return sn.epoch }

// NumVertices reports the snapshot graph's vertex count.
func (sn *Snapshot) NumVertices() int { return sn.nv }

// NumEdges reports the snapshot graph's edge count.
func (sn *Snapshot) NumEdges() int { return sn.ne }

// NumShards reports how many fixed-size shards cover the snapshot's
// vertex ID space.
func (sn *Snapshot) NumShards() int { return len(sn.shards) }

// ShardsRepublished reports how many shards were cloned (rather than
// shared with the previous epoch) to publish this snapshot — the
// publication cost of its batch, in units of graph.ShardSize ID ranges.
func (sn *Snapshot) ShardsRepublished() int { return sn.republished }

// HasVertex reports whether v is present in the snapshot.
func (sn *Snapshot) HasVertex(v uint32) bool {
	sh := sn.shardFor(v)
	return sh != nil && sh.adj.Has(v)
}

// Degree returns v's degree in the snapshot (0 if absent).
func (sn *Snapshot) Degree(v uint32) int {
	if sh := sn.shardFor(v); sh != nil {
		return sh.adj.Degree(v)
	}
	return 0
}

// UpdateStats returns the detector work of the batch that produced this
// epoch (zero for epoch 0).
func (sn *Snapshot) UpdateStats() core.UpdateStats { return sn.last }

// Labels returns v's frozen label sequence (length T+1, cap == len), or
// nil for absent vertices. The slice is shared with the detector and
// with every later snapshot the row did not change in; do not mutate it.
func (sn *Snapshot) Labels(v uint32) []uint32 {
	sh := sn.shardFor(v)
	if sh == nil || !sh.adj.Has(v) {
		return nil
	}
	return sh.labels[v-sh.adj.Base]
}

// Vertices returns the present vertex IDs in ascending order
// (postprocess.GraphView).
func (sn *Snapshot) Vertices() []uint32 {
	vs := make([]uint32, 0, sn.nv)
	for _, sh := range sn.shards {
		for off, ok := range sh.adj.Exists {
			if ok {
				vs = append(vs, sh.adj.Base+uint32(off))
			}
		}
	}
	return vs
}

// Neighbors returns v's frozen neighbor list in the underlying graph's
// adjacency order (nil for absent vertices) — with Vertices, the property
// that keeps snapshot extraction bit-identical to extraction on a full
// graph clone (postprocess.GraphView). The slice is owned by the
// snapshot; do not mutate it.
func (sn *Snapshot) Neighbors(v uint32) []uint32 {
	if sh := sn.shardFor(v); sh != nil {
		return sh.adj.Neighbors(v)
	}
	return nil
}

// Communities extracts the snapshot's overlapping communities, once per
// snapshot: every later call — including Membership — returns the
// memoized result. A call also tells the service that someone reads:
// while readers keep pace with the publishes and the write path has the
// time, the service extracts each epoch before swapping it in and the
// reader finds it already extracted; any other epoch is extracted here,
// by its first caller. Extraction runs on the frozen shards and, for a
// distributed detector, never touches the cluster engine (the sequential
// extraction is bit-identical to the distributed one by the
// postprocessing equivalence tests).
func (sn *Snapshot) Communities() (*postprocess.Result, error) {
	sn.ext.noteRead()
	return sn.communities()
}

// communities is Communities without registering demand: the maintenance
// goroutine's own calls, which are not reads.
func (sn *Snapshot) communities() (*postprocess.Result, error) {
	sn.extract()
	return sn.res, sn.err
}

// Membership returns the indices (into Communities().Cover) of the
// communities containing v; nil for uncovered or absent vertices.
func (sn *Snapshot) Membership(v uint32) ([]int, error) {
	if _, err := sn.Communities(); err != nil {
		return nil, err
	}
	return sn.member[v], nil
}

func (sn *Snapshot) extract() {
	sn.once.Do(func() {
		x := sn.ext
		if x == nil { // a snapshot built outside a service extracts on its own
			x = newExtraction(nil)
		}
		t0 := time.Now()
		// Results never alias scratch memory, so the scratch goes straight
		// back to the pool for the next epoch (or a concurrent extraction
		// of a different snapshot).
		sc := x.scratch.Get().(*postprocess.ExtractScratch)
		edges, reweighted := x.weigh(sn, sc)
		sn.res, sn.err = sc.ExtractFromWeights(sn, edges, sn.pcfg)
		sn.work = extractWork{edges: len(edges), reweighted: reweighted}
		x.scratch.Put(sc)
		took := time.Since(t0)
		x.last.Store(int64(took))
		x.seconds.Observe(took.Seconds())
		x.edges.Add(uint64(len(edges)))
		x.reweighted.Add(uint64(reweighted))
		if sn.err == nil {
			sn.member = sn.res.Cover.Membership()
		}
		sn.src.Store(nil) // the cover stops keeping sn alive
	})
}
