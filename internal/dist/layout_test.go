package dist

import (
	"bytes"
	"errors"
	"testing"

	"rslpa/internal/core"
	"rslpa/internal/graph"
)

// TestNewRSLPATBound checks the distributed entry point accepts T = MaxT
// and rejects T = MaxT+1 with the core's *TRangeError.
func TestNewRSLPATBound(t *testing.T) {
	g := graph.New()
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	eng := newEngine(t, 2)
	if _, err := NewRSLPA(eng, g, core.Config{T: core.MaxT}); err != nil {
		t.Fatalf("T=%d: %v", core.MaxT, err)
	}
	var rangeErr *core.TRangeError
	if _, err := NewRSLPA(eng, g, core.Config{T: core.MaxT + 1}); !errors.As(err, &rangeErr) {
		t.Fatalf("T=%d: got %v, want a *core.TRangeError", core.MaxT+1, err)
	}
}

// TestRecordRowsTightDist checks that Propagate and a checkpoint restore
// leave every worker's record rows sized exactly, as core.Run does.
func TestRecordRowsTightDist(t *testing.T) {
	g := lfrFixture(t)
	blob, d := saveDistributed(t, g, core.Config{T: 40, Seed: 3}, 3, nil)
	c, err := core.ReadCheckpoint(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := NewRSLPAFromCheckpoint(newEngine(t, 2), c)
	if err != nil {
		t.Fatal(err)
	}
	for name, drv := range map[string]*RSLPA{"Propagate": d, "NewRSLPAFromCheckpoint": loaded} {
		for w, sh := range drv.shards {
			for v, row := range sh.recv {
				if cap(row) != len(row) {
					t.Fatalf("%s: worker %d vertex %d record row len %d cap %d", name, w, v, len(row), cap(row))
				}
			}
		}
	}
}
