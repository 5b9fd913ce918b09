package cluster

// Piggybacked all-reduce. The classic aggregation tree costs 2 dedicated
// rounds and 2P messages per reduction. For per-round agreement decisions
// — "which correction level does the cluster process next?" — paying a
// barrier per decision would erase the win the decision buys, so the
// sparse Update schedule uses this barrier-free form instead: every worker
// appends one header-only ballot per peer to whatever superstep it is
// already emitting from, and every worker folds the P ballots out of its
// next inbox. The agreement costs zero extra rounds and P² header-only
// messages per reduced round, the right trade at the small worker counts
// BSP rounds are expensive for.

// AllMinIdle is the ballot value meaning "I have no candidate". Workers
// with nothing to contribute simply do not vote — in BSP, silence is as
// reliable as a message — and ReduceAllMin returns AllMinIdle when no
// ballot arrived at all.
const AllMinIdle = ^uint32(0)

// EmitAllMin broadcasts one val ballot to all p workers under the given
// message kind, piggybacking on the superstep the caller is already
// running: every worker receives every ballot in the next round's inbox
// and folds them with ReduceAllMin, so all workers reach the same verdict
// without a dedicated barrier.
func EmitAllMin(emit Emitter, p int, kind uint8, val uint32) {
	for to := 0; to < p; to++ {
		emit(to, Message{Kind: kind, A: val})
	}
}

// ReduceAllMin folds the kind-tagged ballots of one inbox: val is the
// minimum balloted value (AllMinIdle when nobody voted). votes counts the
// folded ballots so callers can assert participation.
func ReduceAllMin(inbox []Message, kind uint8) (val uint32, votes int) {
	val = AllMinIdle
	for _, m := range inbox {
		if m.Kind == kind {
			votes++
			val = min(val, m.A)
		}
	}
	return val, votes
}
