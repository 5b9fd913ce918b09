// Command rslpa detects overlapping communities in dynamic graphs.
//
// Two subcommands:
//
//	rslpa detect -graph web.txt -T 200 -workers 4 -out communities.txt
//	rslpa detect -graph web.txt -algo slpa -T 100 -tau 0.2
//	rslpa serve  -graph web.txt -addr :7463 -checkpoint state.ckpt
//	rslpa serve  -follow http://writer:7463 -addr :7464
//
// detect runs one-shot detection (rSLPA by default, or the SLPA baseline,
// optionally on the distributed BSP engine); with -truth it reports NMI
// against a ground-truth cover. serve starts the streaming detection
// service: an HTTP front end that ingests edge edits and answers
// snapshot-consistent community queries while maintenance runs. With
// -follow it runs a read-only follower instead: it bootstraps from the
// writer's checkpoint, tails the writer's replication feed, and serves
// the same read endpoints from local snapshots.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rslpa"
	"rslpa/internal/cover"
	"rslpa/internal/obs"
)

func main() {
	var cmd string
	if len(os.Args) > 1 {
		cmd = os.Args[1]
	}
	switch cmd {
	case "detect":
		runDetect(os.Args[2:])
	case "serve":
		runServe(os.Args[2:])
	case "version", "-version", "--version":
		printVersion()
	default:
		fmt.Fprintln(os.Stderr, "usage: rslpa <detect|serve|version> [flags]  (run with -h after a subcommand for its flags)")
		os.Exit(2)
	}
}

// printVersion reports the binary's build identity (module version, VCS
// revision when stamped, toolchain) — the same facts GET /version serves.
func printVersion() {
	bi := obs.Build()
	fmt.Printf("rslpa %s (%s)", bi.Version, bi.GoVersion)
	if bi.Revision != "" {
		rev := bi.Revision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		fmt.Printf(" commit %s", rev)
		if bi.Modified {
			fmt.Print(" (dirty)")
		}
	}
	fmt.Println()
}

func runDetect(args []string) {
	fs := flag.NewFlagSet("rslpa detect", flag.ExitOnError)
	var (
		graphPath = fs.String("graph", "", "edge list input file (required)")
		algo      = fs.String("algo", "rslpa", "algorithm: rslpa or slpa")
		T         = fs.Int("T", 0, "iterations (0 = algorithm default: 200 rSLPA, 100 SLPA; rSLPA needs T ≤ 65535)")
		tau       = fs.Float64("tau", 0.2, "SLPA membership threshold")
		seed      = fs.Uint64("seed", 1, "PRNG seed")
		workers   = fs.Int("workers", 0, "rSLPA: BSP workers (0 = in-process, every core)")
		tcp       = fs.Bool("tcp", false, "rSLPA: use loopback TCP transport")
		out       = fs.String("out", "", "communities output file (one per line)")
		truthPath = fs.String("truth", "", "ground-truth cover for NMI scoring")
	)
	fs.Parse(args)
	if *graphPath == "" {
		fmt.Fprintln(os.Stderr, "rslpa: -graph is required")
		fs.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*graphPath)
	if err != nil {
		fatal(err)
	}
	g, err := rslpa.ReadEdgeList(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loaded graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	var communities *rslpa.Cover
	start := time.Now()
	switch *algo {
	case "rslpa":
		det, err := rslpa.Detect(g, rslpa.Config{T: *T, Seed: *seed, Workers: *workers, TCP: *tcp})
		if err != nil {
			fatal(err)
		}
		defer det.Close()
		propagated := time.Since(start)
		res, err := det.Communities()
		if err != nil {
			fatal(err)
		}
		communities = res.Communities
		fmt.Printf("rSLPA: propagation %v, post-processing %v (τ1=%.4f τ2=%.4f, %d strong + %d weak)\n",
			propagated.Round(time.Millisecond), time.Since(start).Round(time.Millisecond)-propagated.Round(time.Millisecond),
			res.Tau1, res.Tau2, res.Strong, res.Weak)
	case "slpa":
		c, err := rslpa.DetectSLPA(g, rslpa.SLPAConfig{T: *T, Tau: *tau, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		communities = c
		fmt.Printf("SLPA: total %v\n", time.Since(start).Round(time.Millisecond))
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *algo))
	}
	fmt.Printf("detected %d communities covering %d vertices\n",
		communities.Len(), communities.CoveredVertices())

	if *truthPath != "" {
		tf, err := os.Open(*truthPath)
		if err != nil {
			fatal(err)
		}
		truth, err := cover.Read(tf)
		tf.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("NMI vs ground truth: %.4f\n", rslpa.NMI(communities, truth, g.NumVertices()))
	}
	if *out != "" {
		of, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer of.Close()
		if err := communities.Write(of); err != nil {
			fatal(err)
		}
		fmt.Println("communities written to", *out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rslpa:", err)
	os.Exit(1)
}
