// Command bench is the repository's benchmark: four named workloads over
// the public service entry points, end-to-end metrics with regression
// bounds, and a traced mode that breaks the same workloads down layer by
// layer. BENCHMARK.json at the repository root declares the workloads and
// metrics; README.md in this directory documents them.
//
//	go run ./bench                                  every workload, untraced
//	go run ./bench -trace 1                         every workload, traced
//	go run ./bench -workload ingest-flood -seed 2   one workload, held-out seed
//	go run ./bench -out A.jsonl                     also append result records
//	go run ./bench -compare A.jsonl B.jsonl         apply the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// The problem every workload runs on: the size of the LFR graph (≈270 k
// edges, 5 snapshot shards) and the paper's default iteration count. Only
// the tests run a smaller one.
const (
	vertices = 20000
	detectT  = 200
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run, or all")
		seed     = fs.Uint64("seed", 1, "workload seed; every input is generated from it (2 is the held-out seed)")
		seconds  = fs.Int("seconds", 0, "measured window in seconds (default: run_seconds of BENCHMARK.json)")
		trace    = fs.Int("trace", 0, "1 records spans and emits the per-layer metrics instead of the end-to-end ones")
		out      = fs.String("out", "", "append each run's full result record to this JSON-lines file")
		compare  = fs.Bool("compare", false, "compare two result files: bench -compare A.jsonl B.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	names := []string{*workload}
	if *workload == "all" {
		names = spec.workloadNames()
	}
	status := 0
	for _, name := range names {
		cfg := runConfig{workload: name, seed: *seed, seconds: *seconds, trace: *trace != 0, n: vertices, t: detectT, outDir: defaultOutDir}
		rec, err := runWorkload(cfg, spec)
		if err != nil {
			// No result line: the run produced nothing worth comparing.
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		rec.print(stdout)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		line, err := rec.contractLine()
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !rec.Correct {
			status = 1
		}
	}
	return status
}

func appendRecord(path string, rec *record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
