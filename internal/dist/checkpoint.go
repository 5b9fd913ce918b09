// Shard-parallel checkpointing for the distributed rSLPA driver.
//
// Save runs a snapshot barrier over the engine: every worker serializes its
// own partition (adjacency shard, label matrix, pick provenance, in
// ascending vertex order) into a self-contained shard blob CONCURRENTLY,
// the blobs cross the transport to the master via the engine's Gather
// phase, and the master writes the sharded container of core's checkpoint
// format. Nothing is re-encoded centrally — the master only concatenates.
//
// Loading is the inverse with resharding: NewRSLPAFromCheckpoint builds the
// sequential State from the records (core's BuildState, which also rebuilds
// the reverse records) and hands each vertex's rows to its owner under the
// LOADING engine's Owner map, so a checkpoint saved at P=4 restores onto
// P=2 (or P=7, or a sequential detector) with bit-identical state. Reverse
// records land at whichever worker owns each pick's source, exactly where
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
// checkpoint: core's BuildState, then NewRSLPAFromState. The checkpoint's
// own shard count is irrelevant, which makes checkpoints portable across
// worker counts and transports. The driver accepts Update / postprocessing
// immediately.
func NewRSLPAFromCheckpoint(eng *cluster.Engine, c *core.Checkpoint) (*RSLPA, error) {
	if eng == nil {
		return nil, fmt.Errorf("dist: nil engine")
	}
	st, err := c.BuildState()
	if err != nil {
		return nil, err
	}
	return NewRSLPAFromState(eng, st), nil
}
