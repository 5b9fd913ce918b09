// Package cluster provides the distributed runtime the algorithms run on: a
// BSP (bulk-synchronous parallel) superstep engine over P partition workers
// with pluggable transports.
//
// The paper's evaluation runs on Spark, expressing both algorithms as
// Mapper/Reducer supersteps (Algorithms 1 and 2 are written in that style).
// This engine executes the identical message pattern: in every round each
// worker consumes the messages addressed to it in the previous round,
// mutates its local state, and emits messages for the next round; a barrier
// separates rounds. Two transports are provided:
//
//   - Local: per-worker message queues exchanged in memory — fast, used by
//     benchmarks;
//   - TCP: every worker owns a loopback TCP listener and a full mesh of
//     connections; frames are length-prefixed binary — proving the drivers
//     run over a real network stack with no shared memory between
//     partitions.
//
// The engine meters rounds, messages and wire bytes, which is how the
// benchmarks observe the paper's O(|V|)-vs-O(|E|) communication claim.
//
// # Wire format
//
// A Message is a fixed 13-byte header followed by a variable-length payload
// of 32-bit words, all little-endian:
//
//	offset  size  field
//	0       1     Kind
//	1       4     A
//	5       4     B
//	9       4     payload word count (≤ MaxPayloadWords)
//	13      4·k   payload words
//
// Message.WireSize returns the encoded size of one message; Stats.Bytes is
// the sum of WireSize over every exchanged message, so a payload-packed
// message (say, a run-length-encoded label sequence) is charged its real
// cost rather than a fixed per-message stamp. The TCP transport writes, per
// round and per peer, one frame
//
//	[round uint32][message count uint32][count × encoded Message]
//
// and reads exactly one frame from every peer, so the frame count itself
// forms the end-of-round barrier. The local transport moves Message values
// without copying payloads; emitters must therefore not mutate a payload
// slice after emitting it.
package cluster

import (
	"encoding/binary"
	"fmt"
)

// Message is the unit exchanged between workers: a fixed (Kind, A, B)
// header plus an optional []uint32 payload. The header operands and the
// payload layout are interpreted per Kind by the algorithm drivers in
// internal/dist. Header-only messages keep the propagation hot path cheap
// (13 bytes); payload messages let post-processing pack whole sequences,
// histograms, or forests into a single message with exact byte accounting.
//
// The payload is shared, not copied, on the local transport: once emitted,
// the slice must not be mutated by the sender.
type Message struct {
	Kind    uint8
	A, B    uint32
	Payload []uint32
}

// headerSize is the encoded size of the fixed message header: Kind, A, B
// and the payload word count.
const headerSize = 1 + 4 + 4 + 4

// MaxPayloadWords bounds the payload length a decoder accepts (4 MiB of
// payload). It is a corruption guard for the TCP codec, not a protocol
// limit the drivers approach at this repo's scales; senders with more data
// must chunk across messages.
const MaxPayloadWords = 1 << 20

// WireSize returns the encoded size of m in bytes: the 13-byte header plus
// four bytes per payload word.
func (m Message) WireSize() int { return headerSize + 4*len(m.Payload) }

// appendTo appends the encoding of m to buf and returns the extended slice.
func (m Message) appendTo(buf []byte) []byte {
	var hdr [headerSize]byte
	hdr[0] = m.Kind
	binary.LittleEndian.PutUint32(hdr[1:], m.A)
	binary.LittleEndian.PutUint32(hdr[5:], m.B)
	binary.LittleEndian.PutUint32(hdr[9:], uint32(len(m.Payload)))
	buf = append(buf, hdr[:]...)
	var w [4]byte
	for _, x := range m.Payload {
		binary.LittleEndian.PutUint32(w[:], x)
		buf = append(buf, w[:]...)
	}
	return buf
}

// decoder decodes messages through a staging buffer it keeps, so a
// header-only message costs no allocation and a payload message exactly
// one, its []uint32. The TCP transport keeps one per link.
type decoder struct{ stage [4096]byte }

// decodeMessage reads one encoded message from r with a one-shot decoder.
func decodeMessage(r reader) (Message, error) { return new(decoder).decode(r) }

func (d *decoder) decode(r reader) (Message, error) {
	hdr := d.stage[:headerSize]
	if _, err := readFull(r, hdr); err != nil {
		return Message{}, err
	}
	m := Message{
		Kind: hdr[0],
		A:    binary.LittleEndian.Uint32(hdr[1:]),
		B:    binary.LittleEndian.Uint32(hdr[5:]),
	}
	n := int(binary.LittleEndian.Uint32(hdr[9:]))
	if n == 0 {
		return m, nil
	}
	if n > MaxPayloadWords {
		return Message{}, fmt.Errorf("payload of %d words exceeds max %d", n, MaxPayloadWords)
	}
	m.Payload = make([]uint32, n)
	for i := 0; i < n; {
		raw := d.stage[:4*min(n-i, len(d.stage)/4)]
		if _, err := readFull(r, raw); err != nil {
			return Message{}, err
		}
		for j := 0; j < len(raw); j += 4 {
			m.Payload[i] = binary.LittleEndian.Uint32(raw[j:])
			i++
		}
	}
	return m, nil
}

// Message kinds 0xFE and 0xFF are reserved for the engine's own Gather
// phase; algorithm drivers must allocate their kinds below 0xFE.
const (
	// kindGatherHead announces one worker's blob: A = sender worker,
	// B = exact blob byte length.
	kindGatherHead uint8 = 0xFE
	// kindGatherChunk carries one chunk of a worker's blob: A = sender
	// worker, B = chunk index, payload = packed bytes (see PackBytes).
	kindGatherChunk uint8 = 0xFF
)

// gatherChunkWords is the payload size Gather splits blobs at: 256 KiB per
// message, comfortably under MaxPayloadWords.
const gatherChunkWords = 1 << 16

// PackBytes packs a byte blob into payload words, little-endian, zero-padded
// to a word boundary; UnpackBytes with the original byte length inverts it.
// This is how blob-carrying messages (checkpoint shards) ride the []uint32
// payload of the wire protocol.
func PackBytes(b []byte) []uint32 {
	words := make([]uint32, (len(b)+3)/4)
	for i := range words {
		var w uint32
		for j := 0; j < 4; j++ {
			if k := 4*i + j; k < len(b) {
				w |= uint32(b[k]) << (8 * j)
			}
		}
		words[i] = w
	}
	return words
}

// UnpackBytes is the inverse of PackBytes: it extracts n bytes from packed
// payload words. It errors via truncation if the words cannot hold n bytes —
// callers detect that by comparing len of the result with n.
func UnpackBytes(words []uint32, n int) []byte {
	if max := 4 * len(words); n > max {
		n = max
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(words[i/4] >> (8 * (i % 4)))
	}
	return b
}

// Partitioner assigns vertices to workers. Vertex IDs are dense, so simple
// modulo hashing balances partitions well; a multiplicative mix decorrelates
// ownership from the generators' ID locality.
type Partitioner struct {
	P int
}

// Owner returns the worker that owns vertex v.
func (p Partitioner) Owner(v uint32) int {
	h := uint64(v) * 0x9e3779b97f4a7c15
	return int((h >> 32) % uint64(p.P))
}
