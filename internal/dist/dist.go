// Package dist executes the paper's algorithms on the partitioned BSP
// engine of internal/cluster — the distributed half of "On Efficiently
// Detecting Overlapping Communities over Distributed Dynamic Graphs".
//
// # Partitioning model
//
// Vertices are assigned to the engine's P workers by Engine.Owner. Each
// worker holds, for the vertices it owns, the adjacency lists, the label
// matrix, the (src, pos) pick provenance, and the reverse records; no state
// is shared between workers — everything a worker learns about a remote
// vertex arrives as a cluster.Message (a fixed header plus an optional
// packed payload), so the same drivers run unchanged over the in-memory and
// loopback-TCP transports.
//
// # BSP supersteps
//
// Every phase is a sequence of barrier-separated supersteps keyed on the
// engine's round number:
//
//   - rSLPA propagation (Algorithm 1) costs two rounds per iteration: each
//     owner draws its vertices' (src, pos) picks — a pure function of
//     (seed, vertex, iteration), see core.InitialPick — and sends one
//     request to the source's owner, which installs the reverse record and
//     replies with the label value: 2|V| messages per iteration, the
//     O(|V|)-vs-O(|E|) communication claim of Section III-A.
//   - SLPA propagation costs one round per iteration but one message per
//     directed edge (every speaker pushes one label to every neighbor):
//     2|E| messages per iteration.
//   - Incremental repair (Algorithm 2) applies the batch locally, repicks
//     affected slots with the shared core.RepickPlan rules, fixes the
//     record lists with drop/add messages, and then runs correction
//     propagation level-synchronously on a *sparse* schedule: every round
//     piggybacks an all-reduce-min ballot ("the lowest level I still have
//     work at", cluster.EmitAllMin/ReduceAllMin), so all P workers jump
//     together from the level just finished to the next globally dirty
//     level and any run of idle levels costs zero rounds. Values are
//     pushed, never requested: a record add subscribes the repicked slot
//     to its new source, whose owner pushes the value in the fixup round,
//     and a level that changes a label pushes the new value to every slot
//     that copied it. A non-idle level therefore costs one round (install
//     the pushed values, cascade the changes), and an Update costs the
//     apply round, the fixup round and one round per non-idle level.
//     Because the schedule visits the non-idle levels in increasing order
//     and a pick's position is always below its level, every value a level
//     installs was pushed after the level it was read at had been
//     finalized — exactly the invariant the sequential Update exploits,
//     preserved under skipping.
//
// # Hand-off
//
// Propagate is Algorithm 1 on BSP, which cmd/repro and examples/distributed
// measure. The facade's Detect and LoadDetector build a core.State
// in-process instead (picks do not depend on the partition) and hand each
// worker its vertices' rows with NewRSLPAFromState.
//
// Because every random decision is a pure function of
// (seed, epoch, vertex, iteration) and the per-worker adjacency shards
// replay the identical mutation order as the sequential graph, the label
// matrices are bit-identical to internal/core's for any worker count, which
// the equivalence tests assert.
package dist

import (
	"rslpa/internal/cluster"
	"rslpa/internal/core"
)

// Message kinds; header operand (A, B) and payload meanings are per kind.
const (
	// kindPickReq asks the owner of src A for the label at position B, on
	// behalf of the vertex and iteration in payload [v, t].
	kindPickReq uint8 = iota + 1
	// kindPickRep delivers payload [label] for vertex A's slot B.
	kindPickRep
	// kindDropRec removes record {Pos: B, Tar: payload[0], Iter: payload[1]}
	// at source A.
	kindDropRec
	// kindAddRec appends record {Pos: B, Tar: payload[0], Iter: payload[1]}
	// at source A.
	kindAddRec
	// kindPush delivers payload [label] to vertex A's slot B for
	// correction at level B: the finalized value of the slot's source.
	kindPush
	// kindSeqRLE ships vertex A's full label sequence, sorted and
	// run-length encoded: payload [label, count, label, count, ...] — the
	// exact histogram the weight computation consumes, in one message.
	kindSeqRLE
	// kindVMax moves one τ₂-reduce step up the aggregation tree: payload
	// [vertex, maxCount, ...] pairs of per-vertex maximum common-label
	// counts; header A piggybacks the sender's maximum count over ALL its
	// edges (the global-max reduce the selection fallback needs).
	kindVMax
	// kindThresh broadcasts the resolved weak threshold: payload holds the
	// float64 bits of τ₂ as [hi32, lo32].
	kindThresh
	// kindForest moves one forest-reduce step up the aggregation tree:
	// payload [u, v, count, ...] triples — the sender's component-boundary
	// union pairs (its maximum-spanning-forest edges over counts ≥ τ₂).
	kindForest
	// kindTau1 broadcasts the selected strong threshold: payload holds the
	// float64 bits of τ₁ as [hi32, lo32].
	kindTau1
	// kindAttach ships weak-attachment candidate edges (τ₂ ≤ w < τ₁) to
	// the master: payload [u, v, count, ...] triples.
	kindAttach
	// kindSpeak delivers one spoken label B to listener A (header-only).
	kindSpeak
	// kindAgree is one worker's sparse-Update schedule ballot (see
	// cluster.EmitAllMin): A is the lowest level the sender still has
	// correction work at (header-only).
	kindAgree
)

// shard is one worker's slice of the rSLPA state: adjacency, label matrix,
// pick provenance, and reverse records for owned vertices only. All slices
// are globally indexed (index = vertex ID) with zero entries for vertices
// this worker does not own; that trades P× index memory for branch-free
// lookups, which is fine at the laptop scales this repo targets.
type shard struct {
	exists []bool
	adj    [][]uint32
	labels [][]uint32
	src    [][]int32
	pos    [][]uint16 // 0 under a -1 src, as in core.State
	recv   [][]core.Record
	rows   core.RowStamps // copy-on-write stamps of the label rows (see RSLPA.Freeze)
	owned  []uint32       // owned present vertices, the per-round iteration order
}

// grow extends the per-vertex arrays to cover vertex IDs below n.
func (sh *shard) grow(n int) {
	if k := n - len(sh.exists); k > 0 {
		sh.exists = append(sh.exists, make([]bool, k)...)
		sh.adj = append(sh.adj, make([][]uint32, k)...)
		sh.labels = append(sh.labels, make([][]uint32, k)...)
		sh.src = append(sh.src, make([][]int32, k)...)
		sh.pos = append(sh.pos, make([][]uint16, k)...)
		sh.recv = append(sh.recv, make([][]core.Record, k)...)
	}
}

// addVertex makes v present, allocating its label slots with the initial
// label l⁰_v = v and sentinel picks, mirroring core.State.initVertex.
func (sh *shard) addVertex(v uint32, T int) {
	sh.grow(int(v) + 1)
	if sh.exists[v] {
		return
	}
	sh.exists[v] = true
	sh.owned = append(sh.owned, v)
	if sh.labels[v] == nil {
		labels := make([]uint32, T+1)
		srcs := make([]int32, T+1)
		for i := range labels {
			labels[i] = v
			srcs[i] = -1
		}
		sh.labels[v] = labels
		sh.src[v] = srcs
		sh.pos[v] = make([]uint16, T+1)
	}
}

// hasNbr reports whether u's adjacency (owned by this shard) contains v.
func (sh *shard) hasNbr(u, v uint32) bool {
	if int(u) >= len(sh.adj) {
		return false
	}
	for _, w := range sh.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// addNbr appends v to u's adjacency — the same append graph.Graph.AddEdge
// performs, so shard neighbor order tracks the sequential graph exactly
// (the category draws index into that order).
func (sh *shard) addNbr(u, v uint32) { sh.adj[u] = append(sh.adj[u], v) }

// removeNbr deletes v from u's adjacency by swap-removal, byte-for-byte the
// reordering graph.Graph.removeHalf applies.
func (sh *shard) removeNbr(u, v uint32) {
	list := sh.adj[u]
	for i, w := range list {
		if w == v {
			last := len(list) - 1
			list[i] = list[last]
			sh.adj[u] = list[:last]
			return
		}
	}
}

// phaseStats charges an algorithm phase: Rounds counts the phase's logical
// supersteps (label-propagation iterations or correction levels), while
// Messages and Bytes are the engine's measured wire traffic for the phase.
func phaseStats(rounds int, delta cluster.Stats) cluster.Stats {
	return cluster.Stats{Rounds: int64(rounds), Messages: delta.Messages, Bytes: delta.Bytes}
}
