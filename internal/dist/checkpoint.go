// Shard-parallel checkpointing for the distributed rSLPA driver.
//
// Save runs a snapshot barrier over the engine: every worker serializes its
// own partition (adjacency shard, label matrix, pick provenance, in
// ascending vertex order) into a self-contained shard blob CONCURRENTLY,
// the blobs cross the transport to the master via the engine's Gather
// phase, and the master writes the sharded container of core's checkpoint
// format. Nothing is re-encoded centrally — the master only concatenates.
//
// Loading is the inverse with resharding: NewRSLPAFromCheckpoint replays
// every vertex record through the LOADING engine's Owner map, so a
// checkpoint saved at P=4 restores onto P=2 (or P=7, or a sequential
// detector via core's BuildState) with bit-identical state. Reverse records
// are rebuilt at whichever worker owns each pick's source, exactly where
// live propagation would have installed them.
package dist

import (
	"fmt"
	"io"
	"sort"

	"rslpa/internal/cluster"
	"rslpa/internal/core"
)

// Save checkpoints the distributed detector's full state to w. It is a
// BSP phase like any other: the engine's workers must be idle (no Propagate
// or Update in flight), and the snapshot barrier guarantees every shard is
// serialized from the same superstep-consistent state. The wire cost of
// shipping the shards to the master is recorded in LastCheckpoint.
func (d *RSLPA) Save(w io.Writer) error {
	if !d.run {
		return fmt.Errorf("dist: Save before Propagate")
	}
	before := d.eng.Stats()
	blobs, err := d.eng.Gather(func(worker int) ([]byte, error) {
		return core.EncodeShard(d.cfg.T, d.shardRecords(worker)), nil
	})
	if err != nil {
		return fmt.Errorf("dist: save: %w", err)
	}
	d.LastCheckpoint = d.eng.Stats().Sub(before)
	meta := core.CheckpointMeta{
		T:       d.cfg.T,
		Seed:    d.cfg.Seed,
		Epoch:   d.epoch,
		IDSpace: d.g.MaxVertexID(),
	}
	return core.WriteCheckpoint(w, meta, blobs)
}

// shardRecords snapshots one worker's owned vertices as checkpoint records
// in ascending vertex-ID order. Slices alias the shard's live arrays; the
// caller encodes them before the next mutating phase (which the Gather
// barrier guarantees).
func (d *RSLPA) shardRecords(worker int) []core.VertexRecord {
	sh := d.shards[worker]
	owned := append([]uint32(nil), sh.owned...)
	sort.Slice(owned, func(i, j int) bool { return owned[i] < owned[j] })
	recs := make([]core.VertexRecord, 0, len(owned))
	for _, v := range owned {
		recs = append(recs, core.VertexRecord{
			V:      v,
			Nbrs:   sh.adj[v],
			Labels: sh.labels[v][1:],
			Src:    sh.src[v][1:],
			Pos:    sh.pos[v][1:],
		})
	}
	return recs
}

// NewRSLPAFromCheckpoint restores a distributed driver from a decoded
// checkpoint, re-partitioning every vertex record through eng.Owner — the
// checkpoint's own shard count is irrelevant, which is what makes
// checkpoints portable across worker counts and transports. The returned
// driver has already propagated (epoch and label state come from the
// checkpoint) and accepts Update / postprocessing immediately.
func NewRSLPAFromCheckpoint(eng *cluster.Engine, c *core.Checkpoint) (*RSLPA, error) {
	if eng == nil {
		return nil, fmt.Errorf("dist: nil engine")
	}
	if err := c.Verify(); err != nil {
		return nil, err
	}
	g, err := c.BuildGraph()
	if err != nil {
		return nil, err
	}
	d := &RSLPA{
		eng:   eng,
		cfg:   core.Config{T: c.T, Seed: c.Seed},
		g:     g,
		epoch: c.Epoch,
		run:   true,
	}
	d.shards = make([]*shard, eng.Workers())
	for w := range d.shards {
		d.shards[w] = &shard{}
	}
	T := c.T
	count := make([]int32, g.MaxVertexID())
	c.Records(func(rec *core.VertexRecord) {
		sh := d.shards[eng.Owner(rec.V)]
		sh.addVertex(rec.V, T)
		sh.adj[rec.V] = append([]uint32(nil), rec.Nbrs...)
		copy(sh.labels[rec.V][1:], rec.Labels)
		copy(sh.src[rec.V][1:], rec.Src)
		copy(sh.pos[rec.V][1:], rec.Pos)
		for _, sv := range rec.Src {
			if sv >= 0 {
				count[sv]++
			}
		}
	})
	// Rebuild the reverse records at the owner of each pick's source — the
	// placement live propagation uses (records live where the source lives)
	// — in rows sized exactly by the count above.
	for sv, n := range count {
		if n > 0 {
			sh := d.shards[eng.Owner(uint32(sv))]
			sh.growTo(uint32(sv))
			sh.recv[sv] = make([]core.Record, 0, n)
		}
	}
	c.Records(func(rec *core.VertexRecord) {
		for i, sv := range rec.Src {
			if sv < 0 {
				continue
			}
			sh := d.shards[eng.Owner(uint32(sv))]
			sh.recv[sv] = append(sh.recv[sv], core.Record{
				Tar: rec.V, Pos: rec.Pos[i], Iter: uint16(i + 1),
			})
		}
	})
	// Keep per-round iteration order deterministic and independent of the
	// checkpoint's shard grouping.
	for _, sh := range d.shards {
		sort.Slice(sh.owned, func(i, j int) bool { return sh.owned[i] < sh.owned[j] })
	}
	return d, nil
}
