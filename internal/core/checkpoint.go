package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"

	"rslpa/internal/graph"
)

// This file implements the sharded checkpoint container (format version 2,
// magic "RSLPA2\n") and the shared per-vertex record codec both format
// versions use. The full format specification lives in the doc block of
// persist.go; the architectural summary is:
//
//   - a shard is an independently-encodable byte blob holding the complete
//     propagation state of a set of vertices (EncodeShard), so P workers can
//     serialize their partitions concurrently and a master only concatenates;
//   - the container header records (T, seed, epoch, idSpace, P, owner-map
//     digest) and the per-shard byte lengths, from which shard offsets follow
//     as prefix sums;
//   - loading never trusts the shard boundaries: records are re-partitioned
//     through whatever owner map the *loading* engine uses (or merged into a
//     sequential State), which is what makes a checkpoint portable across
//     worker counts and transports.

const checkpointMagic = "RSLPA2\n"

// checkpoint sanity bounds. maxCheckpointT is the State layout's own bound
// (a larger header is rejected before anything is allocated); the others
// are corruption guards for the decoder, far above anything this repo's
// scales produce, not protocol limits.
const (
	maxCheckpointT      = MaxT
	maxCheckpointShards = 1 << 16
	maxCheckpointSpace  = 1 << 32
)

// VertexRecord is one vertex's complete propagation state as stored in a
// checkpoint shard: its adjacency (in exact live order — future picks draw
// an index into it), the label sequence for iterations 1..T (l⁰ is the
// vertex ID itself), and the (src, pos) pick provenance with -1 sentinels
// for fresh slots. Reverse records are NOT stored: they are fully determined
// by the picks (Validate's record-symmetry invariant) and are rebuilt on
// load.
//
// Pos has the State's in-memory width and convention: u16, 0 under a -1
// Src. The codec maps it to the wire's u32 with -1 under a sentinel, so a
// save encodes straight from the live rows without a widened copy.
type VertexRecord struct {
	V      uint32
	Nbrs   []uint32
	Labels []uint32 // iterations 1..T (length T)
	Src    []int32  // iterations 1..T; -1 = fresh sentinel
	Pos    []uint16 // parallel to Src; 0 under a sentinel
}

// CheckpointMeta is the scalar header state of a checkpoint: everything a
// restored detector needs besides the vertex records themselves. Epoch is
// the update-batch counter and doubles as the RNG stream position — every
// random draw is a pure function of (Seed, Epoch, vertex, iteration), so no
// generator state needs saving.
type CheckpointMeta struct {
	T       int
	Seed    uint64
	Epoch   uint64
	IDSpace int
}

// Checkpoint is a decoded checkpoint: the header state plus the vertex
// records grouped by the shard that saved them. The grouping is provenance,
// not an obligation — builders re-partition the records through the loading
// engine's owner map.
type Checkpoint struct {
	CheckpointMeta
	Shards [][]VertexRecord
}

// Records iterates all vertex records across shards in stored order.
func (c *Checkpoint) Records(fn func(rec *VertexRecord)) {
	for _, sh := range c.Shards {
		for i := range sh {
			fn(&sh[i])
		}
	}
}

// shardDigest is the FNV-1a accumulation of one shard's vertex IDs in record
// order; combined across shards (combineDigests) it pins the owner map the
// checkpoint was saved under, so reordered, dropped or cross-wired shard
// blobs are detected before any state is built.
func shardDigest(vertexIDs func(fn func(v uint32))) uint64 {
	const offset64, prime64 = 0xcbf29ce484222325, 0x100000001b3
	h := uint64(offset64)
	vertexIDs(func(v uint32) {
		for shift := 0; shift < 32; shift += 8 {
			h ^= uint64(byte(v >> shift))
			h *= prime64
		}
	})
	return h
}

// combineDigests folds per-shard digests (with their record counts) into the
// container-level owner-map digest, sensitive to shard order.
func combineDigests(counts []int, digests []uint64) uint64 {
	const offset64, prime64 = 0xcbf29ce484222325, 0x100000001b3
	h := uint64(offset64)
	mix := func(x uint64) {
		for shift := 0; shift < 64; shift += 8 {
			h ^= uint64(byte(x >> shift))
			h *= prime64
		}
	}
	for i := range digests {
		mix(uint64(counts[i]))
		mix(digests[i])
	}
	return h
}

// EncodeShard serializes one shard's vertex records into a self-contained
// blob: [u64 shard digest][u64 vertex count][records...]. It is a pure
// function safe to call concurrently from P workers; the caller passes the
// blobs to WriteCheckpoint. T is the iteration count every record must
// match (len(Labels) == len(Src) == len(Pos) == T).
func EncodeShard(t int, recs []VertexRecord) []byte {
	// Exact size: 16-byte blob header + per record (2 + deg + 3T) words.
	size := 16
	for i := range recs {
		size += 4 * (2 + len(recs[i].Nbrs) + 3*t)
	}
	buf := make([]byte, 0, size)
	digest := shardDigest(func(fn func(v uint32)) {
		for i := range recs {
			fn(recs[i].V)
		}
	})
	buf = binary.LittleEndian.AppendUint64(buf, digest)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(recs)))
	for i := range recs {
		buf = appendVertexRecord(buf, &recs[i])
	}
	return buf
}

// appendVertexRecord appends the wire encoding of one vertex record:
// v, degree, neighbors, labels[1..T], src bit patterns, pos bit patterns.
func appendVertexRecord(buf []byte, rec *VertexRecord) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, rec.V)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Nbrs)))
	for _, u := range rec.Nbrs {
		buf = binary.LittleEndian.AppendUint32(buf, u)
	}
	for _, l := range rec.Labels {
		buf = binary.LittleEndian.AppendUint32(buf, l)
	}
	for _, s := range rec.Src {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s))
	}
	for i, p := range rec.Pos {
		w := uint32(p)
		if rec.Src[i] < 0 {
			w = ^uint32(0) // the wire keeps -1 under a sentinel
		}
		buf = binary.LittleEndian.AppendUint32(buf, w)
	}
	return buf
}

// WriteCheckpoint writes the sharded container: header, per-shard byte
// lengths, then the shard blobs verbatim. shards must be EncodeShard
// outputs (their leading digests feed the container's owner-map digest).
func WriteCheckpoint(w io.Writer, meta CheckpointMeta, shards [][]byte) error {
	if meta.T <= 0 {
		return fmt.Errorf("core: save checkpoint: T=%d must be positive", meta.T)
	}
	counts := make([]int, len(shards))
	digests := make([]uint64, len(shards))
	for i, blob := range shards {
		if len(blob) < 16 {
			return fmt.Errorf("core: save checkpoint: shard %d blob truncated (%d bytes)", i, len(blob))
		}
		digests[i] = binary.LittleEndian.Uint64(blob)
		counts[i] = int(binary.LittleEndian.Uint64(blob[8:]))
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(checkpointMagic); err != nil {
		return fmt.Errorf("core: save checkpoint: %w", err)
	}
	hdr := []uint64{
		uint64(meta.T), meta.Seed, meta.Epoch, uint64(meta.IDSpace),
		uint64(len(shards)), combineDigests(counts, digests),
	}
	for _, x := range hdr {
		if err := writeU64(bw, x); err != nil {
			return fmt.Errorf("core: save checkpoint: %w", err)
		}
	}
	for _, blob := range shards {
		if err := writeU64(bw, uint64(len(blob))); err != nil {
			return fmt.Errorf("core: save checkpoint: %w", err)
		}
	}
	for _, blob := range shards {
		if _, err := bw.Write(blob); err != nil {
			return fmt.Errorf("core: save checkpoint: %w", err)
		}
	}
	return bw.Flush()
}

// Checkpoint snapshots a sequential State as a single-shard checkpoint with
// records in ascending vertex order. The State is unchanged; record slices
// (Pos included: it keeps the in-memory u16 form, see VertexRecord) alias
// the State's internal arrays, so encode before mutating it further.
func (s *State) Checkpoint() *Checkpoint {
	recs := make([]VertexRecord, 0, s.g.NumVertices())
	s.g.ForEachVertex(func(v uint32) {
		recs = append(recs, VertexRecord{
			V:      v,
			Nbrs:   s.g.Neighbors(v),
			Labels: s.labels[v][1:],
			Src:    s.src[v][1:],
			Pos:    s.pos[v][1:],
		})
	})
	return &Checkpoint{
		CheckpointMeta: CheckpointMeta{T: s.cfg.T, Seed: s.cfg.Seed, Epoch: s.epoch, IDSpace: len(s.labels)},
		Shards:         [][]VertexRecord{recs},
	}
}

// SaveCheckpoint writes the State to w in the sharded container format
// (version 2, single shard), which loads into a detector of ANY worker
// count.
func (s *State) SaveCheckpoint(w io.Writer) error {
	c := s.Checkpoint()
	return WriteCheckpoint(w, c.CheckpointMeta, [][]byte{EncodeShard(c.T, c.Shards[0])})
}

// ReadCheckpoint decodes a checkpoint stream in either format version:
// "RSLPA2\n" sharded containers or legacy "RSLPA1\n" single-blob streams
// (parsed as one shard). It performs framing and digest validation only;
// call Verify / BuildState / BuildGraph to cross-check the records and
// materialize state. Any other magic is rejected with a version error.
//
// The decoder is hardened against corrupt input: every claimed count is
// either bounds-checked against a sanity cap or read incrementally, so
// allocation stays proportional to the bytes actually consumed — corrupt
// streams fail with an error, never a panic or an OOM. That guarantee
// covers decoding only: Verify, BuildGraph and BuildState size their
// arrays by the largest vertex ID present, which a valid checkpoint of a
// few bytes can put near 2³².
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	switch string(magic) {
	case checkpointMagic:
		return readCheckpointV2(br)
	case persistMagic:
		return readCheckpointV1(br)
	default:
		return nil, fmt.Errorf("core: load: unsupported checkpoint version (magic %q; want %q or %q)",
			magic, checkpointMagic, persistMagic)
	}
}

// readCheckpointV2 parses the body of a version-2 sharded container.
func readCheckpointV2(br *bufio.Reader) (*Checkpoint, error) {
	var hdr [6]uint64
	for i := range hdr {
		x, err := readU64(br)
		if err != nil {
			return nil, fmt.Errorf("core: load header: %w", err)
		}
		hdr[i] = x
	}
	meta, err := checkMeta(hdr[0], hdr[1], hdr[2], hdr[3])
	if err != nil {
		return nil, err
	}
	shardCount, wantDigest := hdr[4], hdr[5]
	if shardCount > maxCheckpointShards {
		return nil, fmt.Errorf("core: load: implausible shard count %d", shardCount)
	}
	lengths := make([]uint64, shardCount)
	for i := range lengths {
		if lengths[i], err = readU64(br); err != nil {
			return nil, fmt.Errorf("core: load shard lengths: %w", err)
		}
	}

	c := &Checkpoint{CheckpointMeta: meta, Shards: make([][]VertexRecord, shardCount)}
	var rr recordReader
	counts := make([]int, shardCount)
	digests := make([]uint64, shardCount)
	for s := range c.Shards {
		// Each shard must consume exactly its recorded byte length; a
		// LimitReader turns any overrun into a clean EOF error.
		lr := &countingReader{r: io.LimitReader(br, int64(lengths[s]))}
		storedDigest, err := readU64(lr)
		if err != nil {
			return nil, fmt.Errorf("core: load shard %d: %w", s, err)
		}
		count, err := readU64(lr)
		if err != nil {
			return nil, fmt.Errorf("core: load shard %d: %w", s, err)
		}
		if count > uint64(maxCheckpointSpace) {
			return nil, fmt.Errorf("core: load shard %d: implausible vertex count %d", s, count)
		}
		recs := make([]VertexRecord, 0, min(int(count), 4096))
		rr.r = lr
		for i := 0; i < int(count); i++ {
			rec, err := rr.read(meta.T, meta.IDSpace)
			if err != nil {
				return nil, fmt.Errorf("core: load shard %d vertex %d: %w", s, i, err)
			}
			recs = append(recs, rec)
		}
		if lr.n != int64(lengths[s]) {
			return nil, fmt.Errorf("core: load shard %d: consumed %d bytes, recorded length %d", s, lr.n, lengths[s])
		}
		got := shardDigest(func(fn func(v uint32)) {
			for i := range recs {
				fn(recs[i].V)
			}
		})
		if got != storedDigest {
			return nil, fmt.Errorf("core: load shard %d: owner-map digest mismatch (stored %016x, computed %016x)",
				s, storedDigest, got)
		}
		c.Shards[s] = recs
		counts[s], digests[s] = len(recs), got
	}
	if got := combineDigests(counts, digests); got != wantDigest {
		return nil, fmt.Errorf("core: load: owner-map digest mismatch (header %016x, computed %016x)", wantDigest, got)
	}
	return c, nil
}

// readCheckpointV1 parses the body of a legacy single-blob stream into a
// one-shard Checkpoint.
func readCheckpointV1(br *bufio.Reader) (*Checkpoint, error) {
	var hdr [5]uint64
	for i := range hdr {
		x, err := readU64(br)
		if err != nil {
			return nil, fmt.Errorf("core: load header: %w", err)
		}
		hdr[i] = x
	}
	meta, err := checkMeta(hdr[0], hdr[1], hdr[2], hdr[3])
	if err != nil {
		return nil, err
	}
	present := hdr[4]
	if present > uint64(maxCheckpointSpace) {
		return nil, fmt.Errorf("core: load: implausible vertex count %d", present)
	}
	recs := make([]VertexRecord, 0, min(int(present), 4096))
	rr := recordReader{r: br}
	for i := 0; i < int(present); i++ {
		rec, err := rr.read(meta.T, meta.IDSpace)
		if err != nil {
			return nil, fmt.Errorf("core: load vertex %d: %w", i, err)
		}
		recs = append(recs, rec)
	}
	return &Checkpoint{CheckpointMeta: meta, Shards: [][]VertexRecord{recs}}, nil
}

// checkMeta validates the scalar header fields shared by both versions.
func checkMeta(t, seed, epoch, idSpace uint64) (CheckpointMeta, error) {
	if t == 0 || t > maxCheckpointT {
		return CheckpointMeta{}, fmt.Errorf("core: load: implausible T=%d", t)
	}
	if idSpace > maxCheckpointSpace {
		return CheckpointMeta{}, fmt.Errorf("core: load: implausible ID space %d", idSpace)
	}
	return CheckpointMeta{T: int(t), Seed: seed, Epoch: epoch, IDSpace: int(idSpace)}, nil
}

// nbrChunk bounds how many neighbour words one read takes, so a corrupt
// degree claim cannot allocate more than the input actually backs.
const nbrChunk = 4096

// slabMax caps one slab allocation, in elements.
const slabMax = 1 << 20

// slab hands out exact-capacity slices carved from larger allocations. Each
// refill is at least as large as everything handed out so far (up to
// slabMax), so a whole checkpoint costs a few dozen allocations, and since
// slices are taken only for bytes already read, a slab never holds more than
// twice what the input backed.
type slab[E any] struct {
	free []E
	used int
}

// take returns n zeroed elements with cap == len, so an append to one slice
// never reaches the next.
func (s *slab[E]) take(n int) []E {
	if len(s.free) < n {
		s.free = make([]E, max(n, min(s.used, slabMax)))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	s.used += n
	return out
}

// recordReader decodes vertex records in bulk: a record's fixed words, its
// neighbours and its body each arrive through one reused byte buffer, and
// the decoded slices are carved from slabs shared by the whole checkpoint.
// The records are a decoding's own: every builder copies out of them.
type recordReader struct {
	r         io.Reader
	buf       []byte
	nbrs      []uint32 // one record's neighbours while they arrive in chunks
	words     slab[uint32]
	srcs      slab[int32]
	positions slab[uint16]
}

// next returns the next n bytes (a whole number of words), valid until the
// following call. A stream that ends on a word boundary inside them fails
// with io.EOF and one that ends inside a word with io.ErrUnexpectedEOF, as
// reading them a word at a time would.
func (d *recordReader) next(n int) ([]byte, error) {
	if cap(d.buf) < n {
		d.buf = make([]byte, n)
	}
	b := d.buf[:n]
	got, err := io.ReadFull(d.r, b)
	if err == io.ErrUnexpectedEOF && got%4 == 0 {
		err = io.EOF
	}
	return b, err
}

// read decodes one vertex record: its two fixed words, its neighbours in
// chunks of at most nbrChunk words, and its 3T-word body in one read.
func (d *recordReader) read(t, idSpace int) (VertexRecord, error) {
	var rec VertexRecord
	b, err := d.next(4)
	if err != nil {
		return rec, err
	}
	v := binary.LittleEndian.Uint32(b)
	if int(v) >= idSpace {
		return rec, fmt.Errorf("vertex %d outside ID space %d", v, idSpace)
	}
	rec.V = v
	if b, err = d.next(4); err != nil {
		return rec, err
	}
	deg := int(binary.LittleEndian.Uint32(b))
	if deg >= idSpace {
		return rec, fmt.Errorf("vertex %d degree %d outside ID space", v, deg)
	}
	d.nbrs = d.nbrs[:0]
	for left := deg; left > 0; left -= nbrChunk {
		n := min(left, nbrChunk)
		if b, err = d.next(4 * n); err != nil {
			return rec, err
		}
		for i := range n {
			d.nbrs = append(d.nbrs, binary.LittleEndian.Uint32(b[4*i:]))
		}
	}
	rec.Nbrs = d.words.take(deg)
	copy(rec.Nbrs, d.nbrs)
	if b, err = d.next(12 * t); err != nil {
		return rec, err
	}
	rec.Labels = d.words.take(t)
	rec.Src = d.srcs.take(t)
	rec.Pos = d.positions.take(t)
	for j := range t {
		rec.Labels[j] = binary.LittleEndian.Uint32(b[4*j:])
		rec.Src[j] = int32(binary.LittleEndian.Uint32(b[4*(t+j):]))
		rec.Pos[j] = memPos(rec.Src[j], int32(binary.LittleEndian.Uint32(b[4*(2*t+j):])))
	}
	return rec, nil
}

// badPos marks a wire position the in-memory layout cannot hold. No pick
// can carry it (a position is below its iteration, and T ≤ MaxT), so Verify
// rejects it exactly where it rejected the wire value.
const badPos = MaxT

// memPos maps a wire position to its in-memory u16. A sentinel's negative
// wire pos becomes 0, as in a live State; any other value Verify would
// reject — a non-negative pos under a sentinel, or a real pick's pos
// outside [0, MaxT) — becomes badPos, which Verify rejects in turn.
func memPos(src, pos int32) uint16 {
	switch {
	case src < 0 && pos < 0:
		return 0
	case src >= 0 && pos >= 0 && pos < badPos:
		return uint16(pos)
	default:
		return badPos
	}
}

// countingReader tracks bytes consumed, for shard-length framing checks.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Verify cross-checks the records against each other with the same
// strictness Validate applies to a live State: every vertex appears exactly
// once, every neighbor reference resolves, and every pick is either the
// (-1, -1) fresh sentinel (with the vertex's own label) or names a current
// neighbor — or the vertex itself when isolated — with a position in [0, t)
// and a consistent copied label value. A checkpoint that passes Verify
// therefore builds a State that passes Validate. Adjacency symmetry is
// checked by BuildGraph.
func (c *Checkpoint) Verify() error {
	// recOf indexes the records by vertex ID, sized by the largest ID
	// present (as BuildGraph's adjacency is), never by the header's ID
	// space.
	maxID := -1
	c.Records(func(rec *VertexRecord) { maxID = max(maxID, int(rec.V)) })
	recOf := make([]*VertexRecord, maxID+1)
	record := func(u uint32) *VertexRecord {
		if int(u) < len(recOf) {
			return recOf[u]
		}
		return nil
	}
	dup := false
	var dupV uint32
	c.Records(func(rec *VertexRecord) {
		if recOf[rec.V] != nil {
			dup, dupV = true, rec.V
		}
		recOf[rec.V] = rec
	})
	if dup {
		return fmt.Errorf("core: load: vertex %d recorded twice", dupV)
	}
	// labelAt(u, p) is u's label at position p; position 0 is the vertex ID
	// itself. Callers have already established u is present and p <= T.
	labelAt := func(u uint32, p uint16) uint32 {
		if p == 0 {
			return u
		}
		return recOf[u].Labels[p-1]
	}
	// mark[u] == gen while the record being checked lists u as a neighbour:
	// one generation per record keeps the per-iteration source check O(1)
	// without a set per vertex (a linear rescan of Nbrs for each of the T
	// picks would make verification O(T·ΣdegV) on the restart path).
	mark := make([]uint32, len(recOf))
	var gen uint32
	var failure error
	c.Records(func(rec *VertexRecord) {
		if failure != nil {
			return
		}
		if len(rec.Labels) != c.T || len(rec.Src) != c.T || len(rec.Pos) != c.T {
			failure = fmt.Errorf("core: load: vertex %d record shape mismatch", rec.V)
			return
		}
		gen++
		for _, u := range rec.Nbrs {
			if record(u) == nil {
				failure = fmt.Errorf("core: load: vertex %d has absent neighbor %d", rec.V, u)
				return
			}
			mark[u] = gen
		}
		for i := 0; i < c.T; i++ {
			t := i + 1
			sv, pv := rec.Src[i], rec.Pos[i]
			if sv < 0 {
				if pv != 0 {
					failure = fmt.Errorf("core: load: vertex %d iter %d: sentinel src with pos %d", rec.V, t, pv)
					return
				}
				if rec.Labels[i] != rec.V {
					failure = fmt.Errorf("core: load: vertex %d iter %d: sentinel pick but label %d", rec.V, t, rec.Labels[i])
					return
				}
				continue
			}
			src := uint32(sv)
			srcRec := record(src)
			if srcRec == nil {
				failure = fmt.Errorf("core: load: vertex %d iter %d references absent source %d", rec.V, t, sv)
				return
			}
			if int(pv) >= t {
				failure = fmt.Errorf("core: load: vertex %d iter %d has pos %d", rec.V, t, pv)
				return
			}
			if src == rec.V {
				if len(rec.Nbrs) != 0 {
					failure = fmt.Errorf("core: load: vertex %d iter %d: self-pick but degree %d > 0", rec.V, t, len(rec.Nbrs))
					return
				}
			} else if mark[src] != gen {
				failure = fmt.Errorf("core: load: vertex %d iter %d: src %d is not a neighbor", rec.V, t, sv)
				return
			}
			if len(srcRec.Labels) != c.T {
				failure = fmt.Errorf("core: load: vertex %d iter %d: source %d record shape mismatch", rec.V, t, sv)
				return
			}
			if got, want := rec.Labels[i], labelAt(src, pv); got != want {
				failure = fmt.Errorf("core: load: vertex %d iter %d: label %d != source %d@%d label %d",
					rec.V, t, got, sv, pv, want)
				return
			}
		}
	})
	return failure
}

// BuildGraph materializes the checkpoint's graph with every neighbor list in
// its exact saved order (see graph.RestoreAdjacency for why order matters).
func (c *Checkpoint) BuildGraph() (*graph.Graph, error) {
	maxID := -1
	count := 0
	c.Records(func(rec *VertexRecord) {
		count++
		if int(rec.V) > maxID {
			maxID = int(rec.V)
		}
	})
	present := make([]uint32, 0, count)
	adj := make([][]uint32, maxID+1)
	c.Records(func(rec *VertexRecord) {
		present = append(present, rec.V)
		adj[rec.V] = rec.Nbrs
	})
	g, err := graph.RestoreAdjacency(present, adj)
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	return g, nil
}

// BuildState reconstructs a sequential State from the checkpoint, merging
// all shards: graph (exact adjacency order), label matrix, pick provenance,
// epoch, and the reverse records rebuilt from the picks. The result passes
// Validate, and — because adjacency order survives the round trip — evolves
// bit-identically to a detector that never checkpointed.
func (c *Checkpoint) BuildState() (*State, error) {
	if err := c.Verify(); err != nil {
		return nil, err
	}
	g, err := c.BuildGraph()
	if err != nil {
		return nil, err
	}
	s := newState(g, Config{T: c.T, Seed: c.Seed})
	s.epoch = c.Epoch
	c.Records(func(rec *VertexRecord) {
		v := rec.V
		copy(s.labels[v][1:], rec.Labels)
		copy(s.src[v][1:], rec.Src)
		copy(s.pos[v][1:], rec.Pos)
	})
	// Rebuild the reverse records from the picks (record-symmetry
	// invariant); Verify has already vetted every reference.
	s.buildRecords(runtime.GOMAXPROCS(0))
	return s, nil
}
