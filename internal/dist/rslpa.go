package dist

import (
	"fmt"
	"slices"

	"rslpa/internal/cluster"
	"rslpa/internal/core"
	"rslpa/internal/graph"
)

// RSLPA is the distributed rSLPA driver: Algorithm 1 as BSP supersteps over
// the engine's partitions, plus Algorithm 2 for incremental repair. Create
// with NewRSLPA and call Propagate once, or hand over a propagated State
// with NewRSLPAFromState; then run any number of Update batches.
// The label matrix is bit-identical to core.Run / core.State.Update on the
// same graph, seed and batches, for any worker count and transport.
type RSLPA struct {
	eng    *cluster.Engine
	cfg    core.Config
	g      *graph.Graph // master copy, kept in step with the shards
	shards []*shard
	epoch  uint64
	run    bool

	// scratch is each worker's persistent Update scratch (see updScratch):
	// lazily created on the first Update and reset in O(1) per batch by the
	// generation-stamp trick, so steady-state incremental batches reuse all
	// the queue and stamp storage instead of reallocating it.
	scratch []*updScratch

	// PropagateStats reports the cost of Propagate: Rounds is the number of
	// label-propagation iterations (T) and Messages/Bytes the wire traffic
	// the engine moved for them (2|V| messages per iteration).
	PropagateStats cluster.Stats
	// LastUpdate reports the wire cost of the most recent Update call;
	// here Rounds counts raw BSP supersteps of the sparse schedule: the
	// apply/repick round, the record-fixup round, then one round per
	// non-idle correction level — runs of idle levels cost zero rounds,
	// skipped by the piggybacked AllReduce-min agreement, so the count is
	// 2 + active levels, not O(T).
	LastUpdate cluster.Stats
	// LastPostprocess reports the wire cost of the most recent Postprocess
	// call on this driver (raw BSP supersteps, messages, bytes).
	LastPostprocess cluster.Stats
	// LastCheckpoint reports the wire cost of the most recent Save call:
	// the gather of every worker's encoded shard to the master.
	LastCheckpoint cluster.Stats
}

// NewRSLPA partitions g over the engine's workers and returns a driver
// ready to Propagate. The graph is copied; apply later changes through
// Update.
func NewRSLPA(eng *cluster.Engine, g *graph.Graph, cfg core.Config) (*RSLPA, error) {
	if eng == nil {
		return nil, fmt.Errorf("dist: nil engine")
	}
	if err := core.CheckT(cfg.T); err != nil {
		return nil, err
	}
	d := &RSLPA{eng: eng, cfg: cfg, g: g.Clone()}
	d.shards = make([]*shard, eng.Workers())
	for w := range d.shards {
		d.shards[w] = &shard{}
	}
	d.g.ForEachVertex(func(v uint32) {
		sh := d.shards[eng.Owner(v)]
		sh.addVertex(v, cfg.T)
		// Copy the adjacency in graph order: the pick draws index into it.
		sh.adj[v] = append([]uint32(nil), d.g.Neighbors(v)...)
	})
	return d, nil
}

// NewRSLPAFromState returns a driver on eng that holds st's state: each
// owner receives its vertices' label, src and pos rows and the record rows
// stored at them as they are, without copying, and its own copy of their
// adjacency lists. st's graph becomes the master graph, and st is consumed
// (see core.State.HandOff). The driver has propagated already — no
// superstep runs, so PropagateStats stays zero — and evolves exactly as
// NewRSLPA + Propagate on the same graph: picks are pure functions of
// (seed, vertex, iteration), whoever draws them.
func NewRSLPAFromState(eng *cluster.Engine, st *core.State) *RSLPA {
	d := &RSLPA{eng: eng, cfg: core.Config{T: st.T(), Seed: st.Seed()}, epoch: st.Epoch(), run: true}
	tab := st.HandOff()
	d.g = tab.Graph
	d.shards = make([]*shard, eng.Workers())
	for w := range d.shards {
		d.shards[w] = &shard{}
		d.shards[w].grow(d.g.MaxVertexID())
	}
	d.g.ForEachVertex(func(v uint32) {
		sh := d.shards[eng.Owner(v)]
		sh.exists[v] = true
		sh.owned = append(sh.owned, v)
		// Shards and the master graph both mutate adjacency under Update.
		sh.adj[v] = append([]uint32(nil), d.g.Neighbors(v)...)
		sh.labels[v], sh.src[v], sh.pos[v] = tab.Labels[v], tab.Src[v], tab.Pos[v]
		sh.recv[v] = tab.Recv[v] // records live at the source: v's owner
	})
	return d
}

// Labels returns vertex v's label sequence (length T+1, cap == len), or
// nil for absent vertices. The slice is owned by the driver; callers must
// not mutate it. Update may write it in place until the next Freeze and
// never after.
func (d *RSLPA) Labels(v uint32) []uint32 {
	sh := d.shards[d.eng.Owner(v)]
	if int(v) >= len(sh.exists) || !sh.exists[v] {
		return nil
	}
	return sh.labels[v]
}

// Freeze promises that no row Labels has returned so far is written
// again, as core.State.Freeze does: each worker's next write to such a row
// goes to a private copy. It must not run concurrently with Update.
func (d *RSLPA) Freeze() {
	for _, sh := range d.shards {
		sh.rows.Freeze()
	}
}

// T returns the configured iteration count.
func (d *RSLPA) T() int { return d.cfg.T }

// Graph returns the driver's current master graph. The caller must not
// mutate it; use Update.
func (d *RSLPA) Graph() *graph.Graph { return d.g }

// Propagate executes Algorithm 1: T iterations, each one request/reply
// round pair. At round 2(t-1) every owner draws its vertices' picks for
// iteration t and asks the source's owner for the label value; at round
// 2t-1 the source owner installs the reverse record and replies; the value
// lands at round 2t, before any reply for iteration t+1 can read it.
func (d *RSLPA) Propagate() error {
	if d.run {
		return fmt.Errorf("dist: Propagate called twice")
	}
	T := d.cfg.T
	before := d.eng.Stats()
	step := func(w, round int, inbox []cluster.Message, emit cluster.Emitter) (bool, error) {
		sh := d.shards[w]
		if round%2 == 0 {
			// Install the replies for iteration round/2.
			for _, m := range inbox {
				sh.labels[m.A][m.B] = m.Payload[0]
			}
			t := round/2 + 1
			if t > T {
				return false, nil
			}
			for _, v := range sh.owned {
				src, pos := core.InitialPick(d.cfg, v, t, sh.adj[v])
				sh.src[v][t] = int32(src)
				sh.pos[v][t] = pos
				emit(d.eng.Owner(src), cluster.Message{
					Kind: kindPickReq, A: src, B: uint32(pos), Payload: []uint32{v, uint32(t)},
				})
			}
			return true, nil
		}
		// Serve the requests: record the pick at the source, reply with the
		// label value (position B < t is final by the level invariant).
		for _, m := range inbox {
			tar, iter := m.Payload[0], m.Payload[1]
			sh.recv[m.A] = append(sh.recv[m.A], core.Record{
				Tar: tar, Pos: uint16(m.B), Iter: uint16(iter),
			})
			emit(d.eng.Owner(tar), cluster.Message{
				Kind: kindPickRep, A: tar, B: iter, Payload: []uint32{sh.labels[m.A][m.B]},
			})
		}
		return true, nil
	}
	if _, err := d.eng.RunRounds(step, 2*T+1); err != nil {
		return err
	}
	// Rows grew by append's doubling; size them exactly, as core.Run does.
	// Later appends go through core.AppendRecord's bounded growth.
	for _, sh := range d.shards {
		for v, row := range sh.recv {
			if cap(row) > len(row) {
				sh.recv[v] = append(make([]core.Record, 0, len(row)), row...)
			}
		}
	}
	d.run = true
	d.PropagateStats = phaseStats(T, d.eng.Stats().Sub(before))
	return nil
}

// updScratch is one worker's cross-round state during an Update run. It
// persists across Update calls on the driver: reset bumps a generation
// counter that invalidates every stamp/seen mark in O(1), and all slices
// are truncated rather than freed, so a steady-state batch reuses the
// previous batch's storage (the distributed mirror of core's updArena).
type updScratch struct {
	stats core.UpdateStats
	queue [][]pushed // queue[t]: values pushed to owned slots at level t
	gen   uint32     // current Update generation (0 = never used)
	stamp []uint64   // stamp[v] = gen<<32|level: v drained at level (dedup)
	// touched collects this worker's owned vertices whose adjacency or
	// labels changed (UpdateStats.Dirty); owners are disjoint, so the
	// concatenation over workers is duplicate-free and equals the
	// sequential set exactly. seen gen-stamps membership so touched
	// resets in O(1) per batch.
	seen    []uint32
	touched []uint32

	deltas   core.DeltaAcc // batch net-delta accumulation (map-free)
	arrivals []uint32      // repick-plan arrival scratch

	lo        int32 // schedule floor: no queued level below lo remains
	remoteMin int32 // lowest level a remote push was emitted at this round
	levels    int   // levels scheduled so far (identical on every worker)
}

// pushed is one value pushed to slot (v, level) of an owned vertex.
type pushed struct{ v, val uint32 }

// reset prepares the scratch for a new Update run, recycling every backing
// array. On the once-in-4-billion uint32 generation wraparound the stamp
// arrays are hard-cleared so stale marks can never alias a live one.
func (u *updScratch) reset() {
	u.stats = core.UpdateStats{}
	u.gen++
	if u.gen == 0 {
		clear(u.stamp)
		clear(u.seen)
		u.gen = 1
	}
	u.touched = u.touched[:0]
	u.deltas.Reset()
	u.lo = 1
	u.levels = 0
}

// enqueue queues value val for owned slot (v, t).
func (u *updScratch) enqueue(v uint32, t int32, val uint32) {
	u.queue[t] = append(u.queue[t], pushed{v, val})
}

// ensureStamp grows the stamp arrays to cover n vertex IDs (new vertices
// can appear mid-batch). Grown tails are zero, which no generation ≥ 1
// ever matches.
func (u *updScratch) ensureStamp(n int) {
	for len(u.stamp) < n {
		u.stamp = append(u.stamp, 0)
	}
	for len(u.seen) < n {
		u.seen = append(u.seen, 0)
	}
}

// touch adds v to the worker's dirty set (idempotent per batch).
func (u *updScratch) touch(v uint32) {
	if u.seen[v] == u.gen {
		return
	}
	u.seen[v] = u.gen
	u.touched = append(u.touched, v)
}

// Update applies a batch of edge edits and runs Correction Propagation
// (Algorithm 2) across the partitions on the sparse schedule (see correct).
func (d *RSLPA) Update(batch []graph.Edit) (core.UpdateStats, error) {
	if !d.run {
		return core.UpdateStats{}, fmt.Errorf("dist: Update before Propagate")
	}
	d.epoch++
	stats, err := d.correct(func(w int, sh *shard, sc *updScratch, emit cluster.Emitter) {
		d.applyBatch(sh, sc, w, batch, emit)
	})
	if err != nil {
		return core.UpdateStats{}, err
	}
	// Mirror the batch on the master graph (same AddEdge/RemoveEdge order
	// as the shards, so adjacency order stays in lockstep).
	d.g.Apply(batch)
	return stats, nil
}

// correct runs Correction Propagation over the partitions, pushing values
// to the slots that read them instead of having readers ask:
//
//   - Round 0 calls seed on every worker (Update's batch apply + repick,
//     which emits the record drop/add fixups).
//   - Round 1 ingests the fixups. A record add is a subscription: the
//     source's owner pushes the slot its current value l^pos_src at once,
//     and should that value change at level pos later in the run, the
//     cascade pushes the corrected one, because the record is installed
//     by then.
//   - Every later round is one correction level. Each round that pushes
//     (round 1 and every level round) piggybacks one ballot per worker —
//     the lowest level it still has work at, counting both its own queues
//     and the pushes it just emitted — via cluster.EmitAllMin; idle
//     workers stay silent. The next round every worker folds the same P
//     ballots with cluster.ReduceAllMin, so all workers agree on the next
//     non-idle level, install the values queued at it and cascade every
//     changed one in a single round. Runs of idle levels cost zero rounds,
//     and when no ballot arrives at all the run quiesces.
//
// So an Update with A non-idle levels costs exactly A + 2 rounds. The
// schedule visits non-idle levels in increasing order and a slot's pos is
// below its level, so every value pushed to a level is queued before the
// level runs. A slot receives at most two pushes per batch — its
// subscription's in round 1, then its source's cascade if l^pos_src
// changes at level pos — in that order, so the last value queued for it
// is the final l^pos_src.
func (d *RSLPA) correct(seed func(w int, sh *shard, sc *updScratch, emit cluster.Emitter)) (core.UpdateStats, error) {
	T := d.cfg.T
	maxLvl := int32(T) + 1
	before := d.eng.Stats()

	if d.scratch == nil {
		d.scratch = make([]*updScratch, d.eng.Workers())
		for w := range d.scratch {
			d.scratch[w] = &updScratch{queue: make([][]pushed, T+1)}
		}
	}
	scratch := d.scratch
	for _, sc := range scratch {
		sc.reset()
	}

	step := func(w, round int, inbox []cluster.Message, emit cluster.Emitter) (bool, error) {
		sh := d.shards[w]
		sc := scratch[w]
		sc.remoteMin = maxLvl
		if round == 0 {
			seed(w, sh, sc, emit)
			// Work queued without a message still needs round 1's ballot.
			return d.nextLevel(sc) <= T, nil
		}
		for _, m := range inbox {
			switch m.Kind {
			case kindDropRec:
				sh.recv[m.A] = core.DropRecord(sh.recv[m.A], core.Record{
					Tar: m.Payload[0], Pos: uint16(m.B), Iter: uint16(m.Payload[1]),
				})
			case kindAddRec:
				sh.recv[m.A] = core.AppendRecord(sh.recv[m.A], core.Record{
					Tar: m.Payload[0], Pos: uint16(m.B), Iter: uint16(m.Payload[1]),
				})
				d.push(sc, w, m.Payload[0], int32(m.Payload[1]), sh.labels[m.A][m.B], emit)
			case kindPush:
				sc.enqueue(m.A, int32(m.B), m.Payload[0])
			}
		}
		if round > 1 {
			next, _ := cluster.ReduceAllMin(inbox, kindAgree)
			if next == cluster.AllMinIdle {
				return false, nil // nobody has work left: quiesce
			}
			lvl := int32(next)
			sc.levels++
			sc.drainLevel(sh, lvl, func(v, val uint32) {
				if sh.labels[v][lvl] == val {
					return
				}
				sh.rows.Set(sh.labels, v, int(lvl), val)
				sc.stats.Changed++
				d.cascade(sh, sc, w, v, lvl, val, emit)
			})
		}
		if next := d.nextLevel(sc); next <= T {
			cluster.EmitAllMin(emit, d.eng.Workers(), kindAgree, uint32(next))
		}
		return false, nil
	}
	// Round 0, round 1 and one round per level: T + 3 rounds is out of
	// reach (levels are visited at most once); hitting the cap means the
	// agreement broke.
	rounds, err := d.eng.RunRounds(step, T+3)
	if err != nil {
		return core.UpdateStats{}, err
	}
	if rounds >= T+3 {
		return core.UpdateStats{}, fmt.Errorf("dist: correction schedule failed to converge in %d rounds", rounds)
	}

	var stats core.UpdateStats
	var dirty []uint32 // freshly allocated: Dirty escapes into snapshots
	for _, sc := range scratch {
		stats.Inserted += sc.stats.Inserted
		stats.Deleted += sc.stats.Deleted
		stats.Repicked += sc.stats.Repicked
		stats.Touched += sc.stats.Touched
		stats.Changed += sc.stats.Changed
		// Owners are disjoint, so concatenation needs no cross-worker dedup.
		dirty = append(dirty, sc.touched...)
	}
	slices.Sort(dirty)
	stats.Dirty = dirty // nil when no worker touched anything
	// Every worker schedules the same level sequence; read worker 0's.
	if lv := scratch[0].levels; lv > 0 {
		stats.RoundsRun = rounds
		stats.LevelsSkipped = T - lv
	}
	d.LastUpdate = d.eng.Stats().Sub(before)
	return stats, nil
}

// nextLevel is this worker's schedule vote: the lowest level it knows
// still has work (its own queues plus any remote pushes it emitted this
// round), or a level above T when it is idle. Idle workers stay silent —
// in BSP silence is as reliable as a message, so an all-idle cluster
// terminates the run with zero extra rounds.
func (d *RSLPA) nextLevel(sc *updScratch) int {
	next := int(sc.remoteMin)
	for t := int(sc.lo); t < next && t <= d.cfg.T; t++ {
		if len(sc.queue[t]) > 0 {
			return t
		}
	}
	return next
}

// drainLevel drains one level's queue with the stamp-deduplicated
// accounting the sequential Update uses (Touched counts each slot once),
// calling slot once per slot with the last value pushed to it, and
// advances the schedule floor past the level.
func (sc *updScratch) drainLevel(sh *shard, lvl int32, slot func(v, val uint32)) {
	sc.ensureStamp(len(sh.exists))
	key := uint64(sc.gen)<<32 | uint64(uint32(lvl))
	q := sc.queue[lvl]
	for i := len(q) - 1; i >= 0; i-- { // newest first: a later push supersedes
		v := q[i].v
		if sc.stamp[v] == key {
			continue // superseded push within this level
		}
		sc.stamp[v] = key
		sc.touch(v)
		sc.stats.Touched++
		slot(v, q[i].val)
	}
	sc.queue[lvl] = q[:0] // recycle the queue's capacity
	sc.lo = lvl + 1
}

// cascade pushes a changed label l^t_v to every slot that copied it.
func (d *RSLPA) cascade(sh *shard, sc *updScratch, w int, v uint32, t int32, val uint32, emit cluster.Emitter) {
	for _, rec := range sh.recv[v] {
		if int32(rec.Pos) == t {
			d.push(sc, w, rec.Tar, int32(rec.Iter), val, emit)
		}
	}
}

// push delivers val to slot (tar, iter): queued directly when this worker
// owns tar (no self-message), otherwise sent to tar's owner and tracked in
// remoteMin so this round's ballot accounts for it.
func (d *RSLPA) push(sc *updScratch, w int, tar uint32, iter int32, val uint32, emit cluster.Emitter) {
	owner := d.eng.Owner(tar)
	if owner == w {
		sc.enqueue(tar, iter, val)
		return
	}
	emit(owner, cluster.Message{Kind: kindPush, A: tar, B: uint32(iter), Payload: []uint32{val}})
	sc.remoteMin = min(sc.remoteMin, iter)
}

// applyBatch is Update's round 0 for one worker: replay the batch against
// the local shard (edits touching no owned endpoint are skipped, and both
// endpoint owners reach the same changed/no-op verdict because adjacency
// symmetry is an invariant), accumulate the net neighbor delta, repick the
// affected slots, and emit the record drop/add fixups.
func (d *RSLPA) applyBatch(sh *shard, sc *updScratch, w int, batch []graph.Edit, emit cluster.Emitter) {
	bump := sc.deltas.Bump
	for _, e := range batch {
		ownsU := d.eng.Owner(e.U) == w
		ownsV := d.eng.Owner(e.V) == w
		if !ownsU && !ownsV {
			continue
		}
		switch e.Op {
		case graph.Insert:
			if e.U == e.V {
				continue // graph.AddEdge rejects self-loops
			}
			// The changed verdict from whichever endpoint is local.
			var changed bool
			if ownsU {
				sh.grow(int(e.U) + 1)
				changed = !sh.hasNbr(e.U, e.V)
			} else {
				sh.grow(int(e.V) + 1)
				changed = !sh.hasNbr(e.V, e.U)
			}
			if !changed {
				continue
			}
			if ownsU {
				sh.addVertex(e.U, d.cfg.T)
				sh.addNbr(e.U, e.V)
				bump(e.U, e.V, 1)
				sc.stats.Inserted++ // count each changed edit once, at U's owner
			}
			if ownsV {
				sh.addVertex(e.V, d.cfg.T)
				sh.addNbr(e.V, e.U)
				bump(e.V, e.U, 1)
			}
		case graph.Delete:
			var changed bool
			if ownsU {
				changed = sh.hasNbr(e.U, e.V)
			} else {
				changed = sh.hasNbr(e.V, e.U)
			}
			if !changed {
				continue
			}
			if ownsU {
				sh.removeNbr(e.U, e.V)
				bump(e.U, e.V, -1)
			}
			if ownsV {
				sh.removeNbr(e.V, e.U)
				bump(e.V, e.U, -1)
			}
			if ownsU {
				sc.stats.Deleted++
			}
		}
	}

	// Repick the affected slots (Algorithm 2 lines 1-12) and fix the
	// record lists at whichever workers own the old and new sources.
	// Finalize drops exact cancellations and yields the affected owned
	// vertices in ascending ID order (the sequential Update's order too).
	sc.deltas.Finalize()
	sc.ensureStamp(len(sh.exists))
	sc.deltas.ForEach(func(v uint32, dl core.DeltaList) {
		sc.touch(v) // adjacency changed even if no slot repicks
		plan := core.NewRepickPlan(v, dl, sh.adj[v], sc.arrivals)
		sc.arrivals = plan.Buf()
		if !plan.Active() {
			return
		}
		for t := int32(1); t <= int32(d.cfg.T); t++ {
			oldSrc := sh.src[v][t]
			newSrc, newPos, rp := plan.Slot(d.cfg, d.epoch, t, oldSrc)
			if !rp {
				continue
			}
			if oldSrc >= 0 {
				emit(d.eng.Owner(uint32(oldSrc)), cluster.Message{
					Kind: kindDropRec, A: uint32(oldSrc), B: uint32(sh.pos[v][t]), Payload: []uint32{v, uint32(t)},
				})
			}
			sh.src[v][t] = int32(newSrc)
			sh.pos[v][t] = newPos
			// The record add subscribes the slot to its new source's value.
			emit(d.eng.Owner(newSrc), cluster.Message{
				Kind: kindAddRec, A: newSrc, B: uint32(newPos), Payload: []uint32{v, uint32(t)},
			})
			sc.stats.Repicked++
		}
	})
}
