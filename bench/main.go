// Command bench is the receiver-to-source benchmark of the COIN mediator:
// the one measurement every performance statement about this repository
// is made with. One process hosts the mediator the way cmd/coinserver
// does and drives it with closed-loop receivers through the real wire
// protocol, over federations its own seeded generator builds and an
// independent Go oracle checks. README.md in this directory is the
// glossary of workloads and metrics; BENCHMARK.json at the root of the
// repository names them for the driver.
//
// Usage, from the root of the repository:
//
//	bash bench/run.sh [--workload all|NAME] [--seed N] [--seconds S] [--trace 0|1] [--runs N] [--out DIR]
//	bash bench/run.sh --compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricValue is one metric as the driver reads it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload: the last line of standard output
// holds exactly the first four fields.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is out/result.json: every run made, with what is needed to
// repeat it. --compare reads two of these.
type resultFile struct {
	Commit     string                 `json:"commit"`
	GoVersion  string                 `json:"go_version"`
	NumCPU     int                    `json:"nproc"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Trace      bool                   `json:"trace"`
	Samples    map[string]int         `json:"samples"`
	Runs       map[string][]runResult `json:"runs"` // by workload
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed for the generated federation and the request order")
	seconds := flag.Float64("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
	runs := flag.Int("runs", 1, "runs per workload; --compare uses their median and spread")
	out := flag.String("out", filepath.Join("bench", "out"), "directory for result.json and trace files")
	compare := flag.Bool("compare", false, "compare two result files given as arguments")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: --compare needs two result files")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	var selected []workloadDef
	if *workload == "all" {
		selected = workloads
	} else if w, ok := workloadByName(*workload); ok {
		selected = []workloadDef{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "bench: --seconds and --runs must be positive")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	file := resultFile{
		Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Samples: map[string]int{}, Runs: map[string][]runResult{},
	}
	fmt.Printf("bench: commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, %.3gs measured, trace %d\n",
		file.Commit, file.GoVersion, file.NumCPU, file.GOMAXPROCS, *seed, *seconds, *trace)
	plan := planFor(time.Duration(*seconds * float64(time.Second)))
	status := 0
	var last runResult
	defs := metricDefs(*trace == 1)
	for _, w := range selected {
		for r := 0; r < *runs; r++ {
			var m measured
			var err error
			if *trace == 1 {
				m, err = runTraced(ctx, w, *seed+int64(r), plan, *out)
			} else {
				m, err = runUntraced(ctx, w, *seed+int64(r), plan)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			last = runResult{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricValue{}}
			fmt.Printf("\n%s: %d requests, %d failed, %d samples\n", w.Name, m.attempted, m.failed, m.samples)
			for i, def := range defs {
				last.Metrics[def.Name] = metricValue{m.metrics[def.Name], def.Unit}
				moves := ""
				if *trace == 1 {
					moves = "  should move " + perLayer[i].Moves
				}
				fmt.Printf("  %-28s %14.4f %-5s (n=%d)%s\n", def.Name, m.metrics[def.Name], def.Unit, m.samples, moves)
			}
			if m.failed > 0 {
				fmt.Fprintf(os.Stderr, "bench: %s: WRONG ANSWERS: %d of %d requests failed, first: %v\n", w.Name, m.failed, m.attempted, m.firstErr)
				status = 1
			}
			if *trace == 1 {
				if err := ledgerErr(w, m.metrics); err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					// A single-workload run is the driver's: its exit code
					// and "correct" speak of answers only. The full run is
					// the one a person reads, and it fails.
					if len(selected) > 1 {
						status = 1
					}
				}
			}
			file.Samples[w.Name] = m.samples
			file.Runs[w.Name] = append(file.Runs[w.Name], last)
		}
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(*out, "result.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println()
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return status
}

func metricDefs(traced bool) []metricDef {
	if !traced {
		return endToEnd
	}
	defs := make([]metricDef, len(perLayer))
	for i, l := range perLayer {
		defs[i] = l.metricDef
	}
	return defs
}

// commit names the checked-out commit, or says there is none (the
// driver's checkout is not a git repository).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
