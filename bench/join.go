package main

import "rslpa"

// feedBatch is one canonical batch as the writer journaled it.
type feedBatch struct {
	Epoch uint64
	Edits []rslpa.Edit
}

// joinEpochs maps every submitted edit, in submission order, to the epoch
// of the journaled batch that applied it, or 0 when the edit was coalesced
// away and never reached Update. The feed must cover every epoch the
// submitted edits could have landed in.
//
// The join is per edge in FIFO order: a journaled edit claims the oldest
// unclaimed submitted edit of the same edge and operation. Submitted edits
// of that edge skipped over on the way (an insert and the delete that
// cancelled it inside one batch) were coalesced away, as is everything
// still unclaimed when the feed ends.
func joinEpochs(submitted []rslpa.Edit, feed []feedBatch) (epochOf []uint64, coalesced int) {
	epochOf = make([]uint64, len(submitted))
	pending := make(map[uint64][]int)
	for i, e := range submitted {
		k := edgeKey(e.U, e.V)
		pending[k] = append(pending[k], i)
	}
	for _, b := range feed {
		for _, e := range b.Edits {
			k := edgeKey(e.U, e.V)
			q := pending[k]
			for len(q) > 0 {
				i := q[0]
				q = q[1:]
				if submitted[i].Op == e.Op {
					epochOf[i] = b.Epoch
					break
				}
			}
			pending[k] = q
		}
	}
	for _, ep := range epochOf {
		if ep == 0 {
			coalesced++
		}
	}
	return epochOf, coalesced
}
