package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareFiles prints, for every workload and end-to-end metric, the
// baseline's and the candidate's median, their ratio (candidate over
// baseline) and a verdict against the metric's bound, following the
// choosing-metrics rules: a median worse by more than the bound is a
// REGRESSION; when either side's own runs spread (first to third
// quartile, as a share of the median) wider than the bound, the metric
// is UNRESOLVED unless every candidate run beats every baseline run. It
// returns a non-zero status on any regression or on a higher error rate.
func compareFiles(w io.Writer, basePath, candPath string) int {
	base, err := readResult(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cand, err := readResult(candPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return compareResults(w, base, cand)
}

func readResult(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func compareResults(w io.Writer, base, cand resultFile) int {
	fmt.Fprintf(w, "base: commit %s seed %d (%d cpu) | candidate: commit %s seed %d (%d cpu)\n",
		base.Commit, base.Seed, base.NumCPU, cand.Commit, cand.Seed, cand.NumCPU)
	fmt.Fprintf(w, "%-14s %-24s %14s %14s %9s %7s  %s\n", "workload", "metric", "base", "candidate", "cand/base", "bound", "verdict")
	status := 0
	for _, wl := range workloads {
		b, c := base.Runs[wl.Name], cand.Runs[wl.Name]
		if len(b) == 0 || len(c) == 0 {
			continue
		}
		if eb, ec := errorRate(b), errorRate(c); ec > eb {
			fmt.Fprintf(w, "%-14s %-24s %14.6f %14.6f %9s %7s  REGRESSION\n", wl.Name, "error_rate", eb, ec, "-", "0")
			status = 1
		}
		for _, def := range endToEnd {
			bv, cv := values(b, def.Name), values(c, def.Name)
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			verdict := judge(def, bv, cv)
			if verdict == "REGRESSION" {
				status = 1
			}
			bm, cm := median(bv), median(cv)
			fmt.Fprintf(w, "%-14s %-24s %14.4f %14.4f %9.4f %6.0f%%  %s\n", wl.Name, def.Name, bm, cm, cm/bm, def.Bound*100, verdict)
		}
	}
	return status
}

func errorRate(runs []runResult) float64 {
	attempted, failed := 0, 0
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return float64(failed) / float64(max(attempted, 1))
}

func values(runs []runResult, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// spread is the distance between the first and third quartile as a
// share of the median; zero for fewer than two runs.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return (percentile(s, 75) - percentile(s, 25)) / percentile(s, 50)
}

func judge(def metricDef, base, cand []float64) string {
	worse := func(b, c float64) float64 { // by how much of b is c worse
		if def.Better == "higher" {
			return (b - c) / b
		}
		return (c - b) / b
	}
	if spread(base) > def.Bound || spread(cand) > def.Bound {
		for _, b := range base {
			for _, c := range cand {
				if worse(b, c) >= 0 {
					return "UNRESOLVED"
				}
			}
		}
		return "PASS"
	}
	if worse(median(base), median(cand)) > def.Bound {
		return "REGRESSION"
	}
	return "PASS"
}
