package core

import (
	"bytes"
	"testing"

	"rslpa/internal/graph"
)

// fuzzSeedBlobs builds the seed corpus: one valid legacy (v1) stream, one
// valid sharded (v2) container, a header with T = MaxT+1, systematic
// truncations of both valid streams, and bit-flipped variants at
// spread-out offsets. The fuzzer mutates from
// there; the target's only contract is error-not-panic with bounded
// allocation.
func fuzzSeedBlobs(f *testing.F) [][]byte {
	f.Helper()
	g := randomGraph(40, 90, 12)
	st, err := Run(g, Config{T: 7, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	st.Update([]graph.Edit{{Op: graph.Insert, U: 1, V: 39}, {Op: graph.Delete, U: 0, V: g.Neighbors(0)[0]}})

	var v1, v2 bytes.Buffer
	if err := st.Save(&v1); err != nil {
		f.Fatal(err)
	}
	if err := st.SaveCheckpoint(&v2); err != nil {
		f.Fatal(err)
	}
	// A genuinely multi-shard container, like a distributed detector writes.
	c := st.Checkpoint()
	all := c.Shards[0]
	var sharded bytes.Buffer
	third := len(all) / 3
	blobs := [][]byte{
		EncodeShard(c.T, all[:third]),
		EncodeShard(c.T, all[third:2*third]),
		EncodeShard(c.T, all[2*third:]),
	}
	if err := WriteCheckpoint(&sharded, c.CheckpointMeta, blobs); err != nil {
		f.Fatal(err)
	}

	// A header one iteration past what a State can hold: rejected by the
	// header check, before any allocation.
	var tooLong bytes.Buffer
	if err := WriteCheckpoint(&tooLong, CheckpointMeta{T: MaxT + 1, IDSpace: 40}, nil); err != nil {
		f.Fatal(err)
	}

	seeds := [][]byte{v1.Bytes(), v2.Bytes(), sharded.Bytes(), tooLong.Bytes()}
	for _, full := range [][]byte{v1.Bytes(), sharded.Bytes()} {
		for _, cut := range []int{0, 3, 7, 20, len(full) / 2, len(full) - 3} {
			if cut >= 0 && cut < len(full) {
				seeds = append(seeds, append([]byte(nil), full[:cut]...))
			}
		}
		for off := 0; off < len(full); off += 41 {
			mut := append([]byte(nil), full...)
			mut[off] ^= 0x80
			seeds = append(seeds, mut)
		}
	}
	return seeds
}

// FuzzLoadCheckpoint proves the checkpoint decoders return errors — never
// panic, never allocate unboundedly — on arbitrary input. ReadCheckpoint
// covers both container versions; when a stream parses, the full
// BuildState + Validate pipeline must also terminate cleanly, and a state
// that passes Validate must round-trip back through Save.
func FuzzLoadCheckpoint(f *testing.F) {
	for _, seed := range fuzzSeedBlobs(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<22 {
			return // keep per-exec memory bounded; framing limits are exercised below that
		}
		c, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return // rejected: the only other acceptable outcome
		}
		st, err := c.BuildState()
		if err != nil {
			return
		}
		if err := st.Validate(); err != nil {
			t.Fatalf("accepted checkpoint built an invalid state: %v", err)
		}
		var out bytes.Buffer
		if err := st.SaveCheckpoint(&out); err != nil {
			t.Fatalf("valid state failed to re-save: %v", err)
		}
		if _, err := Load(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("re-saved checkpoint failed to load: %v", err)
		}
	})
}
