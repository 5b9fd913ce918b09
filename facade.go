package rslpa

import (
	"fmt"
	"io"

	"rslpa/internal/core"
	"rslpa/internal/graph"
	"rslpa/internal/nmi"
)

// This file extends the facade with the operational features a deployed
// incremental-detection service needs: state checkpointing, in-process
// parallel detection, weighted-network binarization, and the secondary
// cover-agreement metrics.

// ReadWeightedEdgeList parses a "u v w" edge list and binarizes it by
// weight thresholding — the preprocessing the paper prescribes for applying
// rSLPA to weighted networks. Two-field lines carry an implicit weight 1.
func ReadWeightedEdgeList(r io.Reader, threshold float64) (*Graph, error) {
	return graph.ReadWeightedEdgeList(r, threshold)
}

// DetectParallel is Detect with an explicit core count for the in-process
// detector: each level of the propagation is split across cores (cores <= 0
// selects GOMAXPROCS, which is what Detect uses; 1 runs on the calling
// goroutine). The result is bit-identical at any core count, and the
// returned Detector behaves exactly like Detect's (Update, Communities,
// Save all work). It rejects Config.Workers > 1: the partitioned engine is
// Detect's.
func DetectParallel(g *Graph, cfg Config, cores int) (*Detector, error) {
	cfg = cfg.withDefaults()
	if cfg.Workers > 1 {
		return nil, fmt.Errorf("rslpa: DetectParallel is in-process; use Config.Workers with Detect for the partitioned engine")
	}
	st, err := core.RunParallel(g, core.Config{T: cfg.T, Seed: cfg.Seed}, cores)
	if err != nil {
		return nil, err
	}
	return newDetector(st, cfg)
}

// Save checkpoints the detector's full state (graph, label matrix, pick
// provenance, epoch) so a restarted process can resume incremental
// maintenance without re-running propagation. Sequential AND distributed
// detectors are supported: a distributed detector serializes its partitions
// shard-parallel (each worker encodes its own shard concurrently, the
// master concatenates), and the resulting checkpoint is portable — it can
// be loaded back at ANY worker count and transport via LoadDetector. A
// detector restored from a checkpoint resumes Update and Communities
// bit-identically to one that never restarted.
func (d *Detector) Save(w io.Writer) error {
	if d.seq != nil {
		return d.seq.SaveCheckpoint(w)
	}
	return d.dst.Save(w)
}

// LoadDetector restores a detector from a Save checkpoint. The execution
// mode comes from cfg — Workers and TCP select the engine the restored
// state is re-partitioned onto, independent of how the checkpoint was
// saved — while T and Seed are taken from the checkpoint itself. The
// extraction configuration (thresholds, metric) also comes from cfg.
// Close the returned detector if cfg.Workers > 1.
func LoadDetector(r io.Reader, cfg Config) (*Detector, error) {
	c, err := core.ReadCheckpoint(r)
	if err != nil {
		return nil, err
	}
	cfg.T = c.T
	cfg.Seed = c.Seed
	st, err := c.BuildState()
	if err != nil {
		return nil, err
	}
	return newDetector(st, cfg)
}

// Omega computes the Omega index between two covers — the overlapping
// generalization of the Adjusted Rand Index, sensitive to how many
// communities each vertex pair shares (which NMI is not).
func Omega(a, b *Cover, n int) float64 { return nmi.Omega(a, b, n) }

// AverageF1 computes the symmetric best-match average F1 between two
// covers (Yang & Leskovec 2013).
func AverageF1(a, b *Cover) float64 { return nmi.AverageF1(a, b) }
