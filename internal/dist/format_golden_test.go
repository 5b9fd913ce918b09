package dist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"rslpa/internal/core"
	"rslpa/internal/dynamic"
	"rslpa/internal/graph"
	"rslpa/internal/lfr"
)

// Golden SHA-256 digests of the version-2 checkpoint bytes the fixture in
// TestCheckpointFormatGolden saves. They pin the wire format: the in-memory
// layout may narrow or re-order its fields, but a save must keep producing
// these exact bytes (pos as u32, -1 under a fresh-vertex sentinel). The
// read-only version-1 format is pinned by core's TestLoadLegacyFixtures.
const (
	goldenSaveCheckpoint = "0f59fd9c647a755eede98b7a89157b4dc937f803a1edb141432bc0309f931058"
	goldenSaveDist2      = "d588e2a3a303cd0c72157ec7aefc534cf6de41e3afb41c5ee06960498e4f6e8a"
)

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestCheckpointFormatGolden saves a fixed history — LFR 2 000, an isolated
// AddVertex (so fresh-vertex sentinels reach the wire) and five edit
// batches — from the sequential engine and from a 2-worker distributed
// detector, and compares the bytes with digests taken before the state
// layout changed. The distributed save must also reload into a sequential
// State that re-saves to the sequential bytes exactly.
func TestCheckpointFormatGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2000-vertex fixture")
	}
	p := lfr.Default(2000)
	p.Seed = 17
	res, err := lfr.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{T: 60, Seed: 23}
	seq := mustRunSeq(t, res.Graph, cfg)
	d, err := NewRSLPA(newEngine(t, 2), res.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Propagate(); err != nil {
		t.Fatal(err)
	}
	isolated := uint32(seq.Graph().MaxVertexID())
	if _, ok := seq.AddVertex(isolated); !ok {
		t.Fatal("sequential AddVertex rejected a fresh ID")
	}
	if _, ok := d.AddVertex(isolated); !ok {
		t.Fatal("distributed AddVertex rejected a fresh ID")
	}
	for i := 0; i < 5; i++ {
		batch, err := dynamic.Batch(seq.Graph(), 40, uint64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		batch = graph.Canonicalize(seq.Graph(), batch)
		seq.Update(batch)
		if _, err := d.Update(batch); err != nil {
			t.Fatal(err)
		}
	}
	if src, _, ok := seq.Pick(isolated, 1); ok {
		t.Fatalf("isolated vertex %d holds a pick from %d; the fixture needs a sentinel", isolated, src)
	}

	var v2, dist2 bytes.Buffer
	if err := seq.SaveCheckpoint(&v2); err != nil {
		t.Fatal(err)
	}
	if err := d.Save(&dist2); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, want string
		got        []byte
	}{
		{"SaveCheckpoint", goldenSaveCheckpoint, v2.Bytes()},
		{"2-worker dist Save", goldenSaveDist2, dist2.Bytes()},
	} {
		if got := sha(c.got); got != c.want {
			t.Errorf("%s: sha256 %s (%d bytes), golden %s", c.name, got, len(c.got), c.want)
		}
	}

	restored, err := core.Load(bytes.NewReader(dist2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var resaved bytes.Buffer
	if err := restored.SaveCheckpoint(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), v2.Bytes()) {
		t.Fatal("2-worker save reloaded and re-saved sequentially differs from the sequential save")
	}
}
