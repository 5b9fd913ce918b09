package rslpa_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"rslpa"
)

func TestDetectParallelMatchesSequential(t *testing.T) {
	g := twoBlocks()
	seq, err := rslpa.Detect(g, rslpa.Config{Seed: 7, T: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	par, err := rslpa.DetectParallel(g, rslpa.Config{Seed: 7, T: 40}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	g.ForEachVertex(func(v uint32) {
		a, b := seq.Labels(v), par.Labels(v)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d pos %d differs", v, i)
			}
		}
	})
}

func TestDetectParallelRejectsWorkers(t *testing.T) {
	if _, err := rslpa.DetectParallel(twoBlocks(), rslpa.Config{Workers: 4}, 2); err == nil {
		t.Fatal("Workers>1 accepted by DetectParallel")
	}
}

func TestSaveLoadDetector(t *testing.T) {
	g := twoBlocks()
	det, err := rslpa.Detect(g, rslpa.Config{Seed: 3, T: 30})
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	det.Update([]rslpa.Edit{{Op: rslpa.Insert, U: 2, V: 107}})

	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := rslpa.LoadDetector(&buf, rslpa.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()

	// The restored detector continues incremental maintenance.
	if _, err := restored.Update([]rslpa.Edit{{Op: rslpa.Delete, U: 2, V: 107}}); err != nil {
		t.Fatal(err)
	}
	r1, err := restored.Communities()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Communities.Len() < 2 {
		t.Fatal("restored detector lost the communities")
	}
}

func TestSaveLoadDistributedDetector(t *testing.T) {
	det, err := rslpa.Detect(twoBlocks(), rslpa.Config{Seed: 1, T: 10, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatalf("distributed Save: %v", err)
	}
	restored, err := rslpa.LoadDetector(&buf, rslpa.Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	want, err := det.Communities()
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Communities()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Communities.Equal(want.Communities) {
		t.Fatal("restored distributed detector lost the communities")
	}
}

func TestLoadDetectorRejectsUnknownVersion(t *testing.T) {
	_, err := rslpa.LoadDetector(strings.NewReader("RSLPA9\nxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"), rslpa.Config{})
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("unknown magic: got %v, want explicit version error", err)
	}
}

func TestLoadDetectorRejectsGarbage(t *testing.T) {
	if _, err := rslpa.LoadDetector(strings.NewReader("not a checkpoint"), rslpa.Config{}); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestReadWeightedEdgeListFacade(t *testing.T) {
	g, err := rslpa.ReadWeightedEdgeList(strings.NewReader("1 2 0.9\n2 3 0.1\n"), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestOmegaAndF1Facade(t *testing.T) {
	g := twoBlocks()
	det, err := rslpa.Detect(g, rslpa.Config{Seed: 2, T: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	res, err := det.Communities()
	if err != nil {
		t.Fatal(err)
	}
	c := res.Communities
	if got := rslpa.Omega(c, c, g.NumVertices()); got < 0.999 {
		t.Fatalf("self-omega = %v", got)
	}
	if got := rslpa.AverageF1(c, c); got != 1 {
		t.Fatalf("self-F1 = %v", got)
	}
}

// TestDetectTBound checks Detect accepts T = MaxT and rejects T = MaxT+1
// with a *TRangeError, sequentially and before a distributed engine starts.
func TestDetectTBound(t *testing.T) {
	g := rslpa.NewGraph()
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	d, err := rslpa.Detect(g, rslpa.Config{T: rslpa.MaxT})
	if err != nil {
		t.Fatalf("T=%d: %v", rslpa.MaxT, err)
	}
	d.Close()
	for _, workers := range []int{1, 2} {
		var rangeErr *rslpa.TRangeError
		_, err := rslpa.Detect(g, rslpa.Config{T: rslpa.MaxT + 1, Workers: workers})
		if !errors.As(err, &rangeErr) {
			t.Fatalf("Workers=%d, T=%d: got %v, want a *TRangeError", workers, rslpa.MaxT+1, err)
		}
	}
}
