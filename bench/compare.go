package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// readRecords reads a JSON-lines result file as -out writes it.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// values collects one metric's non-null values over the runs of one
// workload that are not void; traced selects which kind of run they come
// from.
func values(recs []record, workload, metric string, traced bool) []float64 {
	var out []float64
	for _, rec := range recs {
		if rec.Workload != workload || rec.Trace != traced || rec.Void {
			continue
		}
		if m, ok := rec.Metrics[metric]; ok && m.Value != nil {
			out = append(out, *m.Value)
		}
	}
	sort.Float64s(out)
	return out
}

// midpoint is the median with the two middle values averaged, as Python's
// statistics.median has it.
func midpoint(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return (sorted[(n-1)/2] + sorted[n/2]) / 2
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4). Fewer than two values have no spread.
func spread(sorted []float64) float64 {
	m := len(sorted)
	if m < 2 {
		return 0
	}
	quartile := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	med := midpoint(sorted)
	if med == 0 {
		return 0
	}
	return (quartile(3) - quartile(1)) / med
}

// Verdicts of one (workload, metric) comparison.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares side B against side A for one end-to-end metric. worsening
// is B's median relative to A's, signed so that positive is worse. The
// pair is unresolved when either side has no value or a run-to-run spread
// wider than the bound: a difference that size is noise, not a result.
func judge(m metricSpec, a, b []float64) (worsening float64, verdict string) {
	if len(a) == 0 || len(b) == 0 {
		return 0, verdictUnresolved
	}
	ma, mb := midpoint(a), midpoint(b)
	worsening = ratio(mb-ma, ma)
	if m.Better == "higher" {
		worsening = -worsening
	}
	bound := *m.Bound
	switch {
	case spread(a) > bound || spread(b) > bound:
		return worsening, verdictUnresolved
	case worsening > bound:
		return worsening, verdictWorse
	case worsening < -bound:
		return worsening, verdictBetter
	default:
		return worsening, verdictSame
	}
}

// compareFiles prints one row per (workload, end-to-end metric) with both
// medians, the change and a verdict under the bounds of BENCHMARK.json,
// then the tracing overhead where a file holds traced and untraced runs of
// a workload. It returns non-zero when any pair is worse.
func compareFiles(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	var sides [2][]record
	for i, path := range []string{pathA, pathB} {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		sides[i] = recs
	}
	return compareRecords(spec, sides[0], sides[1], stdout)
}

func compareRecords(spec *benchSpec, a, b []record, stdout io.Writer) int {
	status := 0
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median (n, spread)\tB median (n, spread)\tworsening\tbound\tverdict")
	for _, w := range spec.workloadNames() {
		for _, m := range spec.EndToEnd {
			va, vb := values(a, w, m.Name, false), values(b, w, m.Name, false)
			worsening, verdict := judge(m, va, vb)
			if verdict == verdictWorse {
				status = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s (%d, %.1f%%)\t%.6g %s (%d, %.1f%%)\t%+.1f%%\t%.0f%%\t%s\n",
				w, m.Name, midpoint(va), m.Unit, len(va), 100*spread(va),
				midpoint(vb), m.Unit, len(vb), 100*spread(vb), 100*worsening, 100**m.Bound, verdict)
		}
	}
	for i, recs := range [][]record{a, b} {
		for _, w := range spec.workloadNames() {
			traced := values(recs, w, "obs.traced_latency_p50_ms", true)
			plain := values(recs, w, mP50, false)
			if len(traced) > 0 && len(plain) > 0 {
				fmt.Fprintf(tw, "%s\tobs.trace_overhead_ratio (%c)\t%.4f\t\t\t\tinfo\n",
					w, 'A'+i, ratio(midpoint(traced), midpoint(plain)))
			}
		}
	}
	tw.Flush()
	return status
}
