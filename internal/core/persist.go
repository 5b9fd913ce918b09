package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// # Checkpoint format specification
//
// Two on-disk formats exist, distinguished by a 7-byte magic prefix. All
// integers are little-endian; u32/u64 denote 32/64-bit unsigned fields.
//
// ## Version 1 — legacy sequential stream (magic "RSLPA1\n")
//
//	magic   7 bytes  "RSLPA1\n"
//	header  5 × u64  T, seed, epoch, idSpace, present-vertex count
//	body    present × vertex record (see framing below)
//
// ## Version 2 — sharded container (magic "RSLPA2\n")
//
//	magic   7 bytes  "RSLPA2\n"
//	header  6 × u64  T, seed, epoch, idSpace, P (shard count),
//	                 owner-map digest
//	index   P × u64  per-shard byte lengths; shard s starts at
//	                 offset 7 + 8·(6+P) + Σ_{i<s} length[i], so shards can
//	                 be located and decoded independently (and written
//	                 concurrently by P workers before a single concatenation)
//	shards  P × shard blob
//
// A shard blob is self-contained:
//
//	digest  u64      FNV-1a over the shard's vertex IDs in record order
//	count   u64      number of vertex records
//	body    count × vertex record
//
// ## Vertex record framing (shared by both versions)
//
//	v        u32        vertex ID
//	degree   u32        neighbor count
//	nbrs     deg × u32  adjacency in EXACT live order (picks draw an index
//	                    into this order; preserving it is what makes a
//	                    restored detector resume bit-identically)
//	labels   T × u32    label sequence l¹..l^T (l⁰ = v is implied)
//	src      T × u32    pick sources as int32 bit patterns (-1 = sentinel)
//	pos      T × u32    pick positions, parallel to src (-1 = sentinel)
//
// In memory pos is a u16 with 0 under a sentinel (T ≤ 65535 bounds every
// position); the codec maps between the two forms, and the decoder rejects
// any wire position the u16 cannot hold.
//
// Reverse records are not stored: they are fully determined by the (src,
// pos) choices (Validate's record-symmetry invariant), so loaders rebuild
// them — checkpoints stay ~25% smaller and cannot encode an inconsistent
// record set. No RNG state is stored either: every random draw is a pure
// function of (seed, epoch, vertex, iteration), so the epoch counter IS the
// RNG stream position.
//
// ## Versioning and validation rules
//
//   - An unrecognized magic is rejected with a version error; decoders never
//     guess. New layouts bump the magic ("RSLPA3\n", ...); fields are never
//     re-interpreted within a version.
//   - The container digest is the FNV-1a combination of every shard's
//     (count, digest) pair in shard order. It pins the owner map the
//     checkpoint was saved under: a reordered, dropped, duplicated or
//     bit-flipped shard fails loudly as "owner-map digest mismatch" before
//     any state is built.
//   - Shard byte lengths are enforced exactly: a shard that decodes to
//     fewer or more bytes than its index entry is rejected.
//   - Loaders re-partition records through the LOADING engine's owner map
//     (or merge them into a sequential State), so a checkpoint saved at any
//     P loads at any other P, on any transport.
//
// The version-2 implementation lives in checkpoint.go; this file keeps the
// legacy version-1 stream working and routes loads through the shared
// decoder.

const persistMagic = "RSLPA1\n"

// Save writes the State to w in the legacy version-1 stream (sequential,
// single blob). The State is unchanged. Prefer SaveCheckpoint for new
// writers: version 2 is what distributed detectors produce and load.
func (s *State) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(persistMagic); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	hdr := []uint64{uint64(s.cfg.T), s.cfg.Seed, s.epoch, uint64(len(s.labels)), uint64(s.g.NumVertices())}
	for _, x := range hdr {
		if err := writeU64(bw, x); err != nil {
			return err
		}
	}
	var failure error
	var buf []byte
	s.g.ForEachVertex(func(v uint32) {
		if failure != nil {
			return
		}
		rec := VertexRecord{
			V:      v,
			Nbrs:   s.g.Neighbors(v),
			Labels: s.labels[v][1:],
			Src:    s.src[v][1:],
			Pos:    s.pos[v][1:],
		}
		buf = appendVertexRecord(buf[:0], &rec)
		if _, err := bw.Write(buf); err != nil {
			failure = err
		}
	})
	if failure != nil {
		return fmt.Errorf("core: save: %w", failure)
	}
	return bw.Flush()
}

// Load reads a checkpoint in either format version and reconstructs the
// State, including the reverse records and the graph with its exact saved
// neighbor order. The result passes Validate and evolves bit-identically to
// a State that never round-tripped.
func Load(r io.Reader) (*State, error) {
	c, err := ReadCheckpoint(r)
	if err != nil {
		return nil, err
	}
	return c.BuildState()
}

func writeU64(w io.Writer, x uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], x)
	_, err := w.Write(buf[:])
	return err
}

func readU64(r io.Reader) (uint64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

func readU32(r io.Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}
