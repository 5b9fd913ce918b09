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

// EmitAllMin broadcasts one (val, flag) ballot to all p workers under the
// given message kind, piggybacking on the superstep the caller is already
// running: every worker receives every ballot in the next round's inbox
// and folds them with ReduceAllMin, so all workers reach the same verdict
// without a dedicated barrier.
func EmitAllMin(emit Emitter, p int, kind uint8, val uint32, flag bool) {
	b := uint32(0)
	if flag {
		b = 1
	}
	for to := 0; to < p; to++ {
		emit(to, Message{Kind: kind, A: val, B: b})
	}
}

// ReduceAllMin folds the kind-tagged ballots of one inbox: val is the
// minimum balloted value (AllMinIdle when nobody voted) and flag is the
// AND of the flags attached to the winning value's ballots — "everyone
// who nominated the minimum can also handle it locally". votes counts the
// folded ballots so callers can assert participation.
func ReduceAllMin(inbox []Message, kind uint8) (val uint32, flag bool, votes int) {
	val, flag = AllMinIdle, true
	for _, m := range inbox {
		if m.Kind != kind {
			continue
		}
		votes++
		switch {
		case m.A < val:
			val, flag = m.A, m.B != 0
		case m.A == val && val != AllMinIdle:
			flag = flag && m.B != 0
		}
	}
	return val, flag, votes
}
