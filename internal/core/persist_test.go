package core

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rslpa/internal/graph"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	g := randomGraph(150, 400, 31)
	orig := mustRun(t, g, Config{T: 25, Seed: 77})
	orig.Update([]graph.Edit{{Op: graph.Insert, U: 0, V: 149}})

	var buf bytes.Buffer
	if err := orig.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatalf("loaded state invalid: %v", err)
	}
	if loaded.T() != orig.T() || loaded.Seed() != orig.Seed() || loaded.Epoch() != orig.Epoch() {
		t.Fatal("config/epoch lost")
	}
	if !loaded.Graph().Equal(orig.Graph()) {
		t.Fatal("graph lost")
	}
	g.ForEachVertex(func(v uint32) {
		a, b := orig.Labels(v), loaded.Labels(v)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d iter %d: %d vs %d", v, i, a[i], b[i])
			}
		}
		for tt := 1; tt <= orig.T(); tt++ {
			s1, p1, ok1 := orig.Pick(v, tt)
			s2, p2, ok2 := loaded.Pick(v, tt)
			if ok1 != ok2 || s1 != s2 || p1 != p2 {
				t.Fatalf("vertex %d iter %d: picks differ", v, tt)
			}
		}
	})
}

func TestLoadedStateUpdatable(t *testing.T) {
	g := randomGraph(80, 200, 17)
	orig := mustRun(t, g, Config{T: 15, Seed: 5})
	var buf bytes.Buffer
	if err := orig.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	loaded.Update([]graph.Edit{
		{Op: graph.Insert, U: 1, V: 79},
		{Op: graph.Delete, U: 0, V: loaded.Graph().Neighbors(0)[0]},
	})
	if err := loaded.Validate(); err != nil {
		t.Fatalf("update after load: %v", err)
	}
}

// sentinelState is a one-edge graph at T = 8 plus the isolated vertex 5,
// whose fresh picks are all -1 sentinels (the v1_sentinel.ckpt history).
func sentinelState(t *testing.T) *State {
	t.Helper()
	g := graph.New()
	g.AddEdge(0, 1)
	st := mustRun(t, g, Config{T: 8, Seed: 2})
	st.AddVertex(5)
	return st
}

func TestSaveLoadWithSentinels(t *testing.T) {
	// A fresh isolated vertex keeps -1 sentinels; they must survive.
	var buf bytes.Buffer
	if err := sentinelState(t).SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := loaded.Pick(5, 3); ok {
		t.Fatal("sentinel pick resurrected")
	}
}

// TestLoadWirePositions pins the mapping between the version-1 wire's u32
// positions and the State's u16 ones: a sentinel's negative wire pos loads
// as 0 and re-saves as -1, while every position the wire can carry but a
// pick cannot hold is rejected. The stream is the v1_sentinel.ckpt fixture,
// written from sentinelState.
func TestLoadWirePositions(t *testing.T) {
	const T = 8
	full := readFixture(t, "v1_sentinel.ckpt")
	var want bytes.Buffer
	if err := mustLoad(t, full).SaveCheckpoint(&want); err != nil {
		t.Fatal(err)
	}
	// Legacy stream: 7-byte magic, 5 × u64 header, then the records of
	// vertices 0 (degree 1), 1 (degree 1) and 5 (degree 0) in that order.
	recBytes := func(deg int) int { return 4 * (2 + deg + 3*T) }
	posAt := func(recStart, deg, iter int) int { return recStart + 4*(2+deg+2*T) + 4*(iter-1) }
	start0 := len(persistMagic) + 40
	start5 := start0 + 2*recBytes(1)
	for _, c := range []struct {
		name   string
		off    int
		pos    int32
		accept bool
	}{
		{"sentinel with pos -7", posAt(start5, 0, 3), -7, true},
		{"sentinel with pos 0", posAt(start5, 0, 3), 0, false},
		{"sentinel with pos 2", posAt(start5, 0, 3), 2, false},
		{"pick with pos -1", posAt(start0, 1, 3), -1, false},
		{"pick with pos 65535", posAt(start0, 1, 3), 65535, false},
		{"pick with pos 65536", posAt(start0, 1, 3), 65536, false},
		{"pick with pos 1<<20", posAt(start0, 1, 3), 1 << 20, false},
	} {
		mut := append([]byte(nil), full...)
		binary.LittleEndian.PutUint32(mut[c.off:], uint32(c.pos))
		loaded, err := Load(bytes.NewReader(mut))
		if (err == nil) != c.accept {
			t.Fatalf("%s: accepted=%v (err %v)", c.name, err == nil, err)
		}
		if err != nil {
			continue
		}
		if err := loaded.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var resaved bytes.Buffer
		if err := loaded.SaveCheckpoint(&resaved); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resaved.Bytes(), want.Bytes()) {
			t.Fatalf("%s: re-save differs from the unmutated stream's", c.name)
		}
	}
}

// TestLoadLegacyFixtures is the version-1 migration check. Each committed
// stream was written by the version-1 writer of an older build from the
// history rebuilt here; it must still load, validate, and re-save as
// version 2 to exactly the bytes that history's own state saves.
func TestLoadLegacyFixtures(t *testing.T) {
	for _, c := range []struct {
		file  string
		build func() *State
	}{
		{"v1_fuzzseed.ckpt", func() *State { return fuzzSeedState(t) }},
		{"v1_sentinel.ckpt", func() *State { return sentinelState(t) }},
	} {
		loaded := mustLoad(t, readFixture(t, c.file))
		if err := loaded.Validate(); err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		var got, want bytes.Buffer
		if err := loaded.SaveCheckpoint(&got); err != nil {
			t.Fatal(err)
		}
		if err := c.build().SaveCheckpoint(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: migrated checkpoint differs from the rebuilt history's", c.file)
		}
	}
}

// readFixture returns a committed checkpoint from testdata/.
func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustLoad(t *testing.T, b []byte) *State {
	t.Helper()
	st, err := Load(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"XXXXXXX",
		"RSLPA1\n", // truncated header
	}
	for _, in := range cases {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Fatalf("garbage %q accepted", in)
		}
	}
}

func TestLoadRejectsTruncatedBody(t *testing.T) {
	g := randomGraph(30, 60, 3)
	st := mustRun(t, g, Config{T: 10, Seed: 1})
	var buf bytes.Buffer
	if err := st.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) / 3, len(full) - 5} {
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestLoadRejectsCorruptSource(t *testing.T) {
	// Flip bytes until Load either rejects the stream or produces a state
	// that still validates (a flipped label value is legal data); what
	// must never happen is an inconsistent state passing Validate... so
	// assert: Load error OR Validate error OR fully consistent equal-shape
	// state.
	g := randomGraph(20, 40, 9)
	st := mustRun(t, g, Config{T: 6, Seed: 4})
	var buf bytes.Buffer
	if err := st.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Start past the container header, the one-entry shard index and the
	// shard's digest and count: the flips land in the vertex records.
	for off := len(checkpointMagic) + 8*(6+1) + 16; off < len(full); off += 97 {
		mut := append([]byte(nil), full...)
		mut[off] ^= 0xff
		loaded, err := Load(bytes.NewReader(mut))
		if err != nil {
			continue // rejected: good
		}
		// Accepted: the state must at least be structurally sound enough
		// that Validate gives a definite verdict without panicking.
		_ = loaded.Validate()
	}
}

func TestSaveCheckpointRoundTrip(t *testing.T) {
	g := randomGraph(120, 320, 8)
	orig := mustRun(t, g, Config{T: 18, Seed: 44})
	orig.Update([]graph.Edit{{Op: graph.Insert, U: 3, V: 119}})

	var buf bytes.Buffer
	if err := orig.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatalf("loaded state invalid: %v", err)
	}
	if loaded.Epoch() != orig.Epoch() {
		t.Fatal("epoch lost")
	}
	if !orig.EqualLabels(loaded) {
		t.Fatal("label matrix or picks lost")
	}
}

// TestLoadedStateResumesBitIdentically is the sequential half of the
// checkpoint contract: because neighbor-list ORDER survives the round trip,
// a restored State replays future updates with the exact same random draws
// as the twin that never round-tripped — bit-identical, not just
// identically distributed.
func TestLoadedStateResumesBitIdentically(t *testing.T) {
	g := randomGraph(100, 260, 23)
	twin := mustRun(t, g, Config{T: 20, Seed: 6})
	// Churn first so adjacency lists carry swap-removal reorderings — the
	// case a naive AddEdge-based reload would scramble.
	churn := []graph.Edit{
		{Op: graph.Delete, U: 0, V: g.Neighbors(0)[0]},
		{Op: graph.Insert, U: 0, V: 99},
		{Op: graph.Delete, U: 5, V: g.Neighbors(5)[1]},
	}
	twin.Update(churn)

	var buf bytes.Buffer
	if err := twin.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	resume := []graph.Edit{
		{Op: graph.Insert, U: 7, V: 93},
		{Op: graph.Delete, U: 0, V: twin.Graph().Neighbors(0)[0]},
		{Op: graph.Insert, U: 50, V: 150}, // brand-new vertex after restore
	}
	s1 := twin.Update(resume)
	s2 := loaded.Update(resume)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("update stats diverged: %+v vs %+v", s1, s2)
	}
	if !twin.EqualLabels(loaded) {
		t.Fatal("restored state diverged from the never-restarted twin")
	}
}

func TestReadCheckpointRejectsUnknownVersion(t *testing.T) {
	_, err := ReadCheckpoint(strings.NewReader("RSLPA3\n" + strings.Repeat("x", 64)))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future magic: got %v, want explicit version error", err)
	}
}

func TestCheckpointShardLengthMismatchRejected(t *testing.T) {
	st := mustRun(t, randomGraph(20, 40, 2), Config{T: 5, Seed: 1})
	var buf bytes.Buffer
	if err := st.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Shrink the recorded shard length: the shard then under-consumes and
	// the framing check must reject the stream.
	mut := append([]byte(nil), full...)
	off := len(checkpointMagic) + 8*6 // first (only) shard length slot
	mut[off] -= 4
	if _, err := ReadCheckpoint(bytes.NewReader(mut)); err == nil {
		t.Fatal("shard length mismatch accepted")
	}
}
