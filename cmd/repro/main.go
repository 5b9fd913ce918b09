// Command repro regenerates every table and figure of the paper's
// evaluation (Section V) plus the model-validation and ablation studies
// described in README.md's reproduction section. Each experiment prints
// the same rows/series the paper reports; no ledger of paper-vs-measured
// values is committed yet.
//
// Usage:
//
//	repro -exp fig7b                 # one experiment
//	repro -exp all                   # everything
//	repro -exp fig9 -webn 50000      # bigger substitute web graph
//	repro -exp fig7a -scale 5        # shrink LFR sizes 5x for quick runs
//	repro -exp snap -snapdir data/snap  # gauntlet on real SNAP downloads
//
// Experiments: table1 fig7a fig7b fig7c fig7d fig7e fig7f table2 fig8 fig9
// model messages weights sweep checkpoint snap.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// options carries the shared experiment knobs.
type options struct {
	scale   int    // divides the paper's LFR sizes
	runs    int    // repetitions averaged per data point
	seed    uint64 // base seed
	workers int    // BSP workers for distributed experiments
	webN    int    // web-graph substitute size (fig8/fig9/table2)
	rslpaT  int    // rSLPA iterations
	slpaT   int    // SLPA iterations

	snapDir   string // SNAP dataset directory (snap gauntlet)
	snapBatch int    // streamed edges per Update batch (snap gauntlet)
	snapOut   string // JSON artifact path (snap gauntlet)
}

type experiment struct {
	name string
	desc string
	run  func(o options)
}

func main() {
	var o options
	exp := flag.String("exp", "", "experiment id (or 'all'); see -list")
	list := flag.Bool("list", false, "list experiments")
	flag.IntVar(&o.scale, "scale", 1, "divide the paper's LFR sizes by this factor")
	flag.IntVar(&o.runs, "runs", 2, "repetitions averaged per data point (paper: 10)")
	flag.Uint64Var(&o.seed, "seed", 1, "base PRNG seed")
	flag.IntVar(&o.workers, "workers", 4, "BSP workers for distributed experiments")
	flag.IntVar(&o.webN, "webn", 20000, "web-graph substitute vertices (paper dataset: 6.65M)")
	flag.IntVar(&o.rslpaT, "rslpaT", 200, "rSLPA iterations")
	flag.IntVar(&o.slpaT, "slpaT", 100, "SLPA iterations")
	flag.StringVar(&o.snapDir, "snapdir", "testdata/snap", "SNAP dataset directory for -exp snap")
	flag.IntVar(&o.snapBatch, "snapbatch", 50, "streamed edges per batch for -exp snap")
	flag.StringVar(&o.snapOut, "snapout", "BENCH_snap.json", "JSON artifact path for -exp snap")
	flag.Parse()

	exps := []experiment{
		{"table1", "LFR benchmark parameters (Table I)", runTable1},
		{"fig7a", "rSLPA convergence: NMI vs iterations T (Figure 7a)", runFig7a},
		{"fig7b", "NMI vs graph size N (Figure 7b)", runFig7b},
		{"fig7c", "NMI vs average degree k (Figure 7c)", runFig7c},
		{"fig7d", "NMI vs mixing µ (Figure 7d)", runFig7d},
		{"fig7e", "NMI vs memberships om (Figure 7e)", runFig7e},
		{"fig7f", "NMI vs overlapping vertices on (Figure 7f)", runFig7f},
		{"table2", "web-graph substitute statistics (Table II)", runTable2},
		{"fig8", "static running time, SLPA vs rSLPA (Figure 8)", runFig8},
		{"fig9", "incremental vs from-scratch time by batch size (Figure 9)", runFig9},
		{"model", "η̂ complexity model vs measured updates (Section IV-D)", runModel},
		{"messages", "per-iteration communication, SLPA vs rSLPA (Section III-A)", runMessages},
		{"weights", "ablation: edge-weight metric choice", runWeights},
		{"sweep", "ablation: τ1 exact sweep vs 0.001 grid", runSweep},
		{"checkpoint", "shard-parallel save/load and cross-P restore", runCheckpoint},
		{"snap", "real-dataset gauntlet: stream SNAP graphs, score vs ground truth", runSnap},
	}
	byName := make(map[string]experiment, len(exps))
	names := make([]string, 0, len(exps))
	for _, e := range exps {
		byName[e.name] = e
		names = append(names, e.name)
	}

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range exps {
			fmt.Printf("  %-9s %s\n", e.name, e.desc)
		}
		if *exp == "" {
			os.Exit(2)
		}
		return
	}
	if *exp == "all" {
		for _, e := range exps {
			banner(e)
			e.run(o)
		}
		return
	}
	sort.Strings(names)
	e, ok := byName[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "repro: unknown experiment %q (have: %s)\n", *exp, strings.Join(names, " "))
		os.Exit(2)
	}
	banner(e)
	e.run(o)
}

func banner(e experiment) {
	fmt.Printf("\n=== %s — %s ===\n", e.name, e.desc)
}
