package cluster

import "testing"

// TestAllMinPiggybackAgreement runs the piggybacked all-reduce over a real
// engine round on both transports: every worker ballots a value while
// doing its normal emissions, and in the next round every worker folds the
// same inbox to the same minimum with zero extra supersteps.
func TestAllMinPiggybackAgreement(t *testing.T) {
	const kind = uint8(0x42)
	cases := []struct {
		name    string
		vals    []uint32
		wantVal uint32
	}{
		{"min-wins", []uint32{9, 3, 7}, 3},
		{"tied-min", []uint32{5, 5, 8}, 5},
		{"tied-losers", []uint32{2, 6, 6}, 2},
		{"silent-workers", []uint32{AllMinIdle, 4, AllMinIdle}, 4},
		{"all-idle", []uint32{AllMinIdle, AllMinIdle, AllMinIdle}, AllMinIdle},
	}
	for _, kindT := range transports(t) {
		for _, tc := range cases {
			t.Run(kindT.String()+"/"+tc.name, func(t *testing.T) {
				e, err := New(Config{Workers: len(tc.vals), Transport: kindT})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				got := make([]uint32, len(tc.vals))
				votes := make([]int, len(tc.vals))
				step := func(w, round int, inbox []Message, emit Emitter) (bool, error) {
					if round == 0 {
						if tc.vals[w] != AllMinIdle {
							EmitAllMin(emit, e.Workers(), kind, tc.vals[w])
						}
						return true, nil
					}
					got[w], votes[w] = ReduceAllMin(inbox, kind)
					return false, nil
				}
				if _, err := e.RunRounds(step, 2); err != nil {
					t.Fatal(err)
				}
				voting := 0
				for _, v := range tc.vals {
					if v != AllMinIdle {
						voting++
					}
				}
				for w := range got {
					if got[w] != tc.wantVal {
						t.Fatalf("worker %d reduced %d, want %d", w, got[w], tc.wantVal)
					}
					if votes[w] != voting {
						t.Fatalf("worker %d folded %d ballots, want %d", w, votes[w], voting)
					}
				}
			})
		}
	}
}

// TestLastTracePerRoundStats pins the engine's per-round accounting: the
// trace has one entry per executed superstep, entries sum to the run's
// Stats delta, and a terminal (discarded or quiescent) round shows zero.
func TestLastTracePerRoundStats(t *testing.T) {
	e, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	before := e.Stats()
	// Round 0: worker 0 sends two messages; round 1: worker 1 replies with
	// one; round 2: silence (quiescent termination).
	step := func(w, round int, inbox []Message, emit Emitter) (bool, error) {
		switch {
		case round == 0 && w == 0:
			emit(1, Message{Kind: 1, A: 1})
			emit(1, Message{Kind: 1, A: 2, Payload: []uint32{7}})
		case round == 1 && w == 1:
			emit(0, Message{Kind: 2, A: 3})
		}
		return false, nil
	}
	rounds, err := e.RunRounds(step, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 3 {
		t.Fatalf("rounds = %d, want 3 (quiescent before the bound)", rounds)
	}
	trace := e.LastTrace()
	if len(trace) != rounds {
		t.Fatalf("trace length %d, rounds %d", len(trace), rounds)
	}
	delta := e.Stats().Sub(before)
	var msgs, bytes int64
	for _, r := range trace {
		msgs += r.Messages
		bytes += r.Bytes
	}
	if msgs != delta.Messages || bytes != delta.Bytes {
		t.Fatalf("trace sums (%d msgs, %d B) != stats delta (%d msgs, %d B)",
			msgs, bytes, delta.Messages, delta.Bytes)
	}
	if trace[0].Messages != 2 || trace[1].Messages != 1 {
		t.Fatalf("per-round messages %v, want [2 1 0]", trace)
	}
	if last := trace[len(trace)-1]; last != (RoundStat{}) {
		t.Fatalf("terminal round %+v, want zero", last)
	}
}
