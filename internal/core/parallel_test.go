package core

import (
	"slices"
	"testing"

	"rslpa/internal/graph"
)

// TestRunParallelMatchesRun pins the identity of the one propagation loop
// across worker counts: labels, picks and record rows are the same whether
// a level runs inline (Run) or is split over up to 8 workers, on a graph
// with isolated vertices and ID gaps and on one with fewer vertices than
// workers.
func TestRunParallelMatchesRun(t *testing.T) {
	gapped := randomGraph(120, 300, 7)
	for _, v := range []uint32{3, 50, 51, 119} {
		gapped.RemoveVertex(v)
	}
	gapped.AddVertex(130) // isolated, past a gap
	gapped.AddVertex(200)
	tiny := graph.New()
	tiny.AddEdge(0, 4)
	tiny.AddVertex(2)
	cfg := Config{T: 30, Seed: 13}
	for name, g := range map[string]*graph.Graph{
		"random": randomGraph(300, 900, 41),
		"gapped": gapped,
		"tiny":   tiny,
	} {
		seq := mustRun(t, g, cfg)
		for _, workers := range []int{1, 2, 3, 7, 8} {
			par, err := RunParallel(g, cfg, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !seq.EqualLabels(par) {
				t.Fatalf("%s, workers=%d: labels or picks differ from Run's", name, workers)
			}
			if len(par.recv) != len(seq.recv) {
				t.Fatalf("%s, workers=%d: %d record rows, Run has %d", name, workers, len(par.recv), len(seq.recv))
			}
			for v := range seq.recv {
				if !slices.Equal(seq.recv[v], par.recv[v]) {
					t.Fatalf("%s, workers=%d: record row %d differs from Run's", name, workers, v)
				}
			}
			if err := par.Validate(); err != nil {
				t.Fatalf("%s, workers=%d: %v", name, workers, err)
			}
		}
	}
}

func TestRunParallelDefaults(t *testing.T) {
	g := ring(20)
	par, err := RunParallel(g, Config{T: 10, Seed: 1}, 0) // 0 = GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	if err := par.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunParallelRejectsBadConfig(t *testing.T) {
	if _, err := RunParallel(ring(4), Config{T: 0}, 2); err == nil {
		t.Fatal("T=0 accepted")
	}
}

func TestRunParallelEmptyGraph(t *testing.T) {
	par, err := RunParallel(graph.New(), Config{T: 5, Seed: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if par.Graph().NumVertices() != 0 {
		t.Fatal("vertices appeared from nowhere")
	}
}

func TestRunParallelUpdatable(t *testing.T) {
	g := randomGraph(100, 250, 3)
	par, err := RunParallel(g, Config{T: 20, Seed: 9}, 4)
	if err != nil {
		t.Fatal(err)
	}
	par.Update([]graph.Edit{{Op: graph.Insert, U: 0, V: 99}})
	if err := par.Validate(); err != nil {
		t.Fatal(err)
	}
}
