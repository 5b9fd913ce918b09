package cluster

import "testing"

// TestTCPExchangeAllocs pins the TCP codec's allocations per Exchange round
// on a 2-worker mesh: header-only messages cost none, whatever their
// number, and a payload message costs exactly one (its []uint32). What is
// left per round is the exchange's own bookkeeping, which the frame
// encoding adds nothing to.
func TestTCPExchangeAllocs(t *testing.T) {
	const p = 2
	tr, err := newTCPTransport(p)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	round := func(k int, payload bool) [][][]Message {
		out := make([][][]Message, p)
		for w := range out {
			out[w] = make([][]Message, p)
			for i := 0; i < k; i++ {
				m := Message{Kind: 1, A: uint32(i), B: uint32(w)}
				if payload {
					m.Payload = []uint32{uint32(i)}
				}
				out[w][1-w] = append(out[w][1-w], m)
			}
		}
		return out
	}
	allocs := func(out [][][]Message) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := tr.Exchange(out); err != nil {
				t.Fatal(err)
			}
		})
	}
	const k = 256
	one, many := allocs(round(1, false)), allocs(round(k, false))
	withPayload := allocs(round(k, true))
	t.Logf("allocs per round: %v with 1 header-only message per link, %v with %d, %v with %d payload messages",
		one, many, k, withPayload, k)
	if many != one {
		t.Fatalf("%d header-only messages per link cost %v allocs per round, 1 costs %v: decoding allocates per message",
			k, many, one)
	}
	if got := withPayload - many; got != p*k {
		t.Fatalf("%d payload messages cost %v allocs beyond header-only ones, want one each", p*k, got)
	}
	// What is left is Exchange's bookkeeping: its channel, wait group,
	// goroutine closures and per-worker inbox slices. It read 20 while
	// every frame write made a 4 KB scratch and every decoded header
	// escaped to the heap.
	if one > 14 {
		t.Fatalf("a round costs %v allocs, want at most 14", one)
	}
}
