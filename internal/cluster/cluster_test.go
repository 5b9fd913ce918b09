package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func transports(t *testing.T) []TransportKind {
	t.Helper()
	return []TransportKind{Local, TCP}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Workers: 0}); err == nil {
		t.Fatal("want error for zero workers")
	}
	if _, err := New(Config{Workers: 2, Transport: TransportKind(9)}); err == nil {
		t.Fatal("want error for unknown transport")
	}
}

func TestPartitionerCoversAllWorkers(t *testing.T) {
	p := Partitioner{P: 7}
	seen := make(map[int]int)
	for v := uint32(0); v < 10000; v++ {
		o := p.Owner(v)
		if o < 0 || o >= 7 {
			t.Fatalf("owner %d out of range", o)
		}
		seen[o]++
	}
	for w := 0; w < 7; w++ {
		if seen[w] < 10000/7/2 {
			t.Fatalf("worker %d owns only %d vertices — unbalanced", w, seen[w])
		}
	}
}

// TestRingRelay passes a token around the workers once per round; after P
// rounds it must be back at worker 0 incremented P times.
func TestRingRelay(t *testing.T) {
	for _, kind := range transports(t) {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			const p = 4
			e, err := New(Config{Workers: p, Transport: kind})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			var final uint32
			_, err = e.RunRounds(func(w, round int, inbox []Message, emit Emitter) (bool, error) {
				if round == 0 {
					if w == 0 {
						emit(1, Message{Kind: 1, A: 1})
					}
					return false, nil
				}
				for _, m := range inbox {
					if int(m.A) >= 3*p {
						final = m.A
						return false, nil // stop the relay
					}
					emit((w+1)%p, Message{Kind: 1, A: m.A + 1})
				}
				return false, nil
			}, 4*p)
			if err != nil {
				t.Fatal(err)
			}
			if final != 3*p {
				t.Fatalf("token final value %d, want %d", final, 3*p)
			}
		})
	}
}

// TestAllToAll floods every worker pair with distinct payloads and checks
// exact delivery.
func TestAllToAll(t *testing.T) {
	for _, kind := range transports(t) {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			const p = 5
			const perPair = 117
			e, err := New(Config{Workers: p, Transport: kind})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			got := make([]map[uint64]int, p)
			for i := range got {
				got[i] = make(map[uint64]int)
			}
			_, err = e.RunRounds(func(w, round int, inbox []Message, emit Emitter) (bool, error) {
				switch round {
				case 0:
					for to := 0; to < p; to++ {
						for k := 0; k < perPair; k++ {
							emit(to, Message{Kind: 7, A: uint32(w), B: uint32(k), Payload: []uint32{0xabcd, uint32(to)}})
						}
					}
					return false, nil
				default:
					for _, m := range inbox {
						if m.Kind != 7 || len(m.Payload) != 2 || m.Payload[0] != 0xabcd || int(m.Payload[1]) != w {
							return false, fmt.Errorf("worker %d got corrupt message %+v", w, m)
						}
						got[w][uint64(m.A)<<32|uint64(m.B)]++
					}
					return false, nil
				}
			}, 10)
			if err != nil {
				t.Fatal(err)
			}
			for w := 0; w < p; w++ {
				if len(got[w]) != p*perPair {
					t.Fatalf("worker %d received %d distinct messages, want %d", w, len(got[w]), p*perPair)
				}
				for k, n := range got[w] {
					if n != 1 {
						t.Fatalf("worker %d message %x delivered %d times", w, k, n)
					}
				}
			}
			stats := e.Stats()
			if want := int64(p * p * perPair); stats.Messages != want {
				t.Fatalf("stats.Messages = %d, want %d", stats.Messages, want)
			}
			per := int64(Message{Payload: make([]uint32, 2)}.WireSize())
			if stats.Bytes != stats.Messages*per {
				t.Fatalf("stats.Bytes = %d, want %d", stats.Bytes, stats.Messages*per)
			}
		})
	}
}

// TestLargeFrames pushes enough data per round to overflow kernel socket
// buffers, exercising the concurrent read/write paths of the TCP transport.
func TestLargeFrames(t *testing.T) {
	const p = 3
	const perPair = 60000 // ~1 MB per pair per round
	e, err := New(Config{Workers: p, Transport: TCP})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var received [p]int
	_, err = e.RunRounds(func(w, round int, inbox []Message, emit Emitter) (bool, error) {
		received[w] += len(inbox)
		if round < 2 {
			for to := 0; to < p; to++ {
				if to == w {
					continue
				}
				for k := 0; k < perPair; k++ {
					emit(to, Message{Kind: 2, A: uint32(k)})
				}
			}
			return false, nil
		}
		return false, nil
	}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < p; w++ {
		if want := 2 * (p - 1) * perPair; received[w] != want {
			t.Fatalf("worker %d received %d, want %d", w, received[w], want)
		}
	}
}

func TestRunRounds(t *testing.T) {
	e, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	count := 0
	rounds, err := e.RunRounds(func(w, round int, inbox []Message, emit Emitter) (bool, error) {
		if w == 0 {
			count++
		}
		emit(1-w, Message{}) // keep traffic flowing; RunRounds must still stop
		return true, nil
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 5 || count != 5 {
		t.Fatalf("rounds=%d count=%d, want 5", rounds, count)
	}
}

func TestStepErrorPropagates(t *testing.T) {
	e, err := New(Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	boom := errors.New("boom")
	_, err = e.RunRounds(func(w, round int, inbox []Message, emit Emitter) (bool, error) {
		if w == 2 {
			return false, boom
		}
		return false, nil
	}, 10)
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want wrapped boom", err)
	}
}

// TestRunRoundsDiscardsFinalRoundMessages pins RunRounds' documented
// semantics: messages emitted in the final round never cross the transport
// and are not charged to Stats.Messages or Stats.Bytes.
func TestRunRoundsDiscardsFinalRoundMessages(t *testing.T) {
	e, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var delivered [2]int
	rounds, err := e.RunRounds(func(w, round int, inbox []Message, emit Emitter) (bool, error) {
		delivered[w] += len(inbox)
		// Every worker emits one message every round, including the final
		// one, whose emissions must be discarded.
		emit(1-w, Message{Kind: 1, A: uint32(round), Payload: []uint32{9}})
		return true, nil
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 3 {
		t.Fatalf("rounds = %d", rounds)
	}
	// Rounds 0 and 1 deliver into rounds 1 and 2; round 2's emissions die.
	if got := delivered[0] + delivered[1]; got != 4 {
		t.Fatalf("delivered = %d, want 4", got)
	}
	s := e.Stats()
	if s.Messages != 4 {
		t.Fatalf("Stats.Messages = %d, want 4 (final round discarded)", s.Messages)
	}
	per := int64(Message{Payload: make([]uint32, 1)}.WireSize())
	if s.Bytes != 4*per {
		t.Fatalf("Stats.Bytes = %d, want %d", s.Bytes, 4*per)
	}
}

func TestMessageEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Message{
		{Kind: 250, A: 1, B: 1 << 31},                               // header-only
		{Kind: 3, A: 7, B: 9, Payload: []uint32{}},                  // empty non-nil payload
		{Kind: 1, A: 0xffffffff, B: 42, Payload: []uint32{1, 2, 3}}, // small payload
		{Kind: 9, Payload: make([]uint32, MaxPayloadWords)},         // max-size payload
	}
	cases[3].Payload[0] = 0xdeadbeef
	cases[3].Payload[MaxPayloadWords-1] = 0xfeedface
	for i, m := range cases {
		buf := m.appendTo(nil)
		if len(buf) != m.WireSize() {
			t.Fatalf("case %d: encoded %d bytes, WireSize says %d", i, len(buf), m.WireSize())
		}
		got, err := decodeMessage(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if got.Kind != m.Kind || got.A != m.A || got.B != m.B || len(got.Payload) != len(m.Payload) {
			t.Fatalf("case %d: round trip %+v != %+v", i, got, m)
		}
		for j := range m.Payload {
			if got.Payload[j] != m.Payload[j] {
				t.Fatalf("case %d: payload word %d: %x != %x", i, j, got.Payload[j], m.Payload[j])
			}
		}
	}
}

// TestDecodeRejectsOversizedPayload: a frame claiming more than
// MaxPayloadWords must fail loudly instead of allocating.
func TestDecodeRejectsOversizedPayload(t *testing.T) {
	m := Message{Kind: 1, A: 2, B: 3, Payload: []uint32{4}}
	buf := m.appendTo(nil)
	binary.LittleEndian.PutUint32(buf[9:], MaxPayloadWords+1)
	if _, err := decodeMessage(bytes.NewReader(buf)); err == nil {
		t.Fatal("oversized payload length accepted")
	}
}

// TestTCPFrameRoundTrip drives the TCP codec directly: a frame of
// mixed-payload messages (empty through max-size) written by writeFrame
// must decode identically through readFrame.
func TestTCPFrameRoundTrip(t *testing.T) {
	ms := []Message{
		{Kind: 1, A: 10, B: 20},
		{Kind: 2, A: 30, B: 40, Payload: []uint32{}},
		{Kind: 3, A: 50, B: 60, Payload: []uint32{7, 8, 9, 0xffffffff}},
		{Kind: 4, Payload: make([]uint32, MaxPayloadWords)},
	}
	ms[3].Payload[MaxPayloadWords-1] = 0xabad1dea
	var raw bytes.Buffer
	bw := bufio.NewWriter(&raw)
	if err := writeFrame(bw, 17, ms); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(bufio.NewReader(&raw), 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ms) {
		t.Fatalf("decoded %d messages, want %d", len(got), len(ms))
	}
	for i := range ms {
		if got[i].Kind != ms[i].Kind || got[i].A != ms[i].A || got[i].B != ms[i].B ||
			len(got[i].Payload) != len(ms[i].Payload) {
			t.Fatalf("message %d: %+v != %+v", i, got[i], ms[i])
		}
		for j := range ms[i].Payload {
			if got[i].Payload[j] != ms[i].Payload[j] {
				t.Fatalf("message %d payload word %d differs", i, j)
			}
		}
	}
	// A frame for the wrong round must be rejected.
	bw.Reset(&raw)
	if err := writeFrame(bw, 3, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(bufio.NewReader(&raw), 4); err == nil {
		t.Fatal("round mismatch accepted")
	}
}

// TestTCPVariablePayloads exchanges payload-bearing messages over real
// loopback sockets, with sizes crossing the bufio and chunking boundaries.
func TestTCPVariablePayloads(t *testing.T) {
	const p = 3
	e, err := New(Config{Workers: p, Transport: TCP})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var mu sync.Mutex
	sums := make(map[int]uint64, p)
	_, err = e.RunRounds(func(w, round int, inbox []Message, emit Emitter) (bool, error) {
		var sum uint64
		for _, m := range inbox {
			if int(m.A) != w {
				return false, fmt.Errorf("worker %d got message for %d", w, m.A)
			}
			for _, x := range m.Payload {
				sum += uint64(x)
			}
		}
		if round == 0 {
			for to := 0; to < p; to++ {
				// One empty, one small, one large payload per pair.
				emit(to, Message{Kind: 1, A: uint32(to)})
				emit(to, Message{Kind: 2, A: uint32(to), Payload: []uint32{uint32(w + 1)}})
				big := make([]uint32, 40000)
				for i := range big {
					big[i] = uint32(i % 7)
				}
				emit(to, Message{Kind: 3, A: uint32(to), Payload: big})
			}
			return false, nil
		}
		mu.Lock()
		sums[w] += sum
		mu.Unlock()
		return false, nil
	}, 10)
	if err != nil {
		t.Fatal(err)
	}
	var bigSum uint64
	for i := 0; i < 40000; i++ {
		bigSum += uint64(i % 7)
	}
	want := uint64(1+2+3) + uint64(p)*bigSum
	for w := 0; w < p; w++ {
		if sums[w] != want {
			t.Fatalf("worker %d payload sum %d, want %d", w, sums[w], want)
		}
	}
}

func TestPackBytesRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 255, 1024, 4093} {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*131 + 7)
		}
		got := UnpackBytes(PackBytes(b), n)
		if len(got) != n {
			t.Fatalf("n=%d: length %d", n, len(got))
		}
		for i := range b {
			if got[i] != b[i] {
				t.Fatalf("n=%d: byte %d differs", n, i)
			}
		}
	}
	if got := UnpackBytes([]uint32{1}, 100); len(got) != 4 {
		t.Fatalf("overclaimed length not truncated: %d", len(got))
	}
}

func TestGather(t *testing.T) {
	for _, kind := range []TransportKind{Local, TCP} {
		for _, p := range []int{1, 2, 5} {
			e, err := New(Config{Workers: p, Transport: kind})
			if err != nil {
				t.Fatal(err)
			}
			blobs, err := e.Gather(func(w int) ([]byte, error) {
				// Varied, worker-identifying sizes: worker 2 crosses a word
				// boundary, worker 0 returns an empty blob.
				b := make([]byte, w*1237)
				for i := range b {
					b[i] = byte(w ^ i)
				}
				return b, nil
			})
			if err != nil {
				t.Fatalf("%v P=%d: %v", kind, p, err)
			}
			if len(blobs) != p {
				t.Fatalf("%v P=%d: %d blobs", kind, p, len(blobs))
			}
			for w, b := range blobs {
				if len(b) != w*1237 {
					t.Fatalf("%v P=%d worker %d: %d bytes, want %d", kind, p, w, len(b), w*1237)
				}
				for i := range b {
					if b[i] != byte(w^i) {
						t.Fatalf("%v P=%d worker %d: byte %d corrupted", kind, p, w, i)
					}
				}
			}
			e.Close()
		}
	}
}

func TestGatherLargeBlobChunks(t *testing.T) {
	// A blob larger than one chunk (256 KiB of words) must be split and
	// reassembled in order, including over real TCP frames.
	const n = 5*(4<<16) + 13
	for _, kind := range []TransportKind{Local, TCP} {
		e, err := New(Config{Workers: 2, Transport: kind})
		if err != nil {
			t.Fatal(err)
		}
		blobs, err := e.Gather(func(w int) ([]byte, error) {
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(i>>8) ^ byte(w)
			}
			return b, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 2; w++ {
			if len(blobs[w]) != n {
				t.Fatalf("%v worker %d: %d bytes", kind, w, len(blobs[w]))
			}
			for i, got := range blobs[w] {
				if want := byte(i>>8) ^ byte(w); got != want {
					t.Fatalf("%v worker %d: byte %d = %d, want %d", kind, w, i, got, want)
				}
			}
		}
		e.Close()
	}
}

func TestGatherProduceError(t *testing.T) {
	e, err := New(Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Gather(func(w int) ([]byte, error) {
		if w == 1 {
			return nil, fmt.Errorf("boom")
		}
		return []byte{1}, nil
	}); err == nil {
		t.Fatal("produce error swallowed")
	}
}

func TestGatherChargesWireBytes(t *testing.T) {
	e, err := New(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	before := e.Stats()
	if _, err := e.Gather(func(w int) ([]byte, error) { return make([]byte, 1000), nil }); err != nil {
		t.Fatal(err)
	}
	d := e.Stats().Sub(before)
	if d.Bytes < 4000 {
		t.Fatalf("gather of 4x1000 bytes charged only %d wire bytes", d.Bytes)
	}
}
