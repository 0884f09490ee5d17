package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/relalg"
	"repro/internal/sqlparse"
)

// runTraced measures a workload's per-layer metrics. An untraced host
// and a traced one built from the same seed take short turns, and
// trace.overhead_pct is the median over the turns of traced over
// untraced latency, so that the two are compared under the same weather;
// the end-to-end numbers of a traced run are never reported.
func runTraced(ctx context.Context, w workloadDef, seed int64, plan runPlan, outDir string) (measured, error) {
	fed := newFederation(w.N, w.Currencies, seed)
	plain, _, err := setUp(ctx, w, fed, false)
	if err != nil {
		return measured{}, err
	}
	defer plain.close()
	h, _, err := setUp(ctx, w, fed, true)
	if err != nil {
		return measured{}, err
	}
	defer h.close()
	plain.drive(ctx, loadSpec{duration: plan.warmup, seed: seed})
	h.drive(ctx, loadSpec{duration: plan.warmup, seed: seed})

	var run phase // the traced turns together
	var gc struct{ cycles, pauseNs uint64 }
	m := measured{}
	var slowdown []float64 // traced over untraced latency_ms_p50, turn by turn
	turn := min(plan.segment, plan.window) / 2
	statsBefore := h.sys.Executor().Stats()
	for i := int64(0); i < int64(plan.window/(2*turn)); i++ {
		base := plain.drive(ctx, loadSpec{duration: turn, seed: seed + 1 + i})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		traced := h.drive(ctx, loadSpec{duration: turn, seed: seed + 1 + i, record: true})
		runtime.ReadMemStats(&after)
		gc.cycles += uint64(after.NumGC - before.NumGC)
		gc.pauseNs += after.PauseTotalNs - before.PauseTotalNs

		if len(base.samples) > 0 && len(traced.samples) > 0 {
			slowdown = append(slowdown, traced.p50()/base.p50())
		}
		run.ledgers = append(run.ledgers, traced.ledgers...)
		if room := traceFileRequests - len(run.traces); room > 0 {
			run.traces = append(run.traces, traced.traces[:min(room, len(traced.traces))]...)
		}
		run.attempted += traced.attempted
		m.attempted += base.attempted + traced.attempted
		m.failed += base.failed + traced.failed
		for _, err := range []error{base.firstErr, traced.firstErr} {
			if m.firstErr == nil {
				m.firstErr = err
			}
		}
	}
	stats := h.sys.Executor().Stats()
	m.samples = len(run.ledgers)
	if len(run.ledgers) == 0 || len(slowdown) == 0 {
		return m, fmt.Errorf("bench: %s: no traced request completed: %v", w.Name, m.firstErr)
	}

	// Layer values are means over the median band: the requests between
	// the 40th and 60th latency percentile. Each request's self times add
	// up to its own latency, so over the band they add up to the median
	// request, whichever query template that is; medians taken layer by
	// layer would not add up across a mix of templates.
	ledgers := run.ledgers
	sort.Slice(ledgers, func(i, j int) bool { return ledgers[i].latency < ledgers[j].latency })
	band := ledgers[len(ledgers)*2/5 : max(len(ledgers)*3/5, len(ledgers)*2/5+1)]
	mean := func(pick func(reqLedger) float64) float64 {
		sum := 0.0
		for _, l := range band {
			sum += pick(l)
		}
		return sum / float64(len(band))
	}
	// Plan and compile times exist for the replayed requests only.
	replayed := func(pick func(reqLedger) float64) float64 {
		sum, n := 0.0, 0
		for _, l := range band {
			if l.replayed {
				sum += pick(l)
				n++
			}
		}
		return sum / float64(max(n, 1))
	}
	planMs := replayed(func(l reqLedger) float64 { return l.plan })
	compileMs := replayed(func(l reqLedger) float64 { return l.compile })
	reqs := float64(run.attempted)
	hits := float64(stats.CacheHits - statsBefore.CacheHits)
	queries := float64(stats.SourceQueries - statsBefore.SourceQueries)
	traced := ledgers[(len(ledgers)-1)/2].latency
	m.metrics = map[string]float64{
		"client.transport_ms":    mean(func(l reqLedger) float64 { return l.transport }),
		"server.handler_ms":      mean(func(l reqLedger) float64 { return l.handler }),
		"server.self_ms":         mean(func(l reqLedger) float64 { return l.serverSelf }),
		"server.resp_kb":         mean(func(l reqLedger) float64 { return l.respKB }),
		"sqlparse.parse_ms":      mean(func(l reqLedger) float64 { return l.parse }),
		"core.mediate_ms":        mean(func(l reqLedger) float64 { return l.mediate }),
		"core.branches":          mean(func(l reqLedger) float64 { return float64(l.branches) }),
		"core.warm_ms":           float64(h.warmNs) * msPerNs,
		"planner.plan_ms":        planMs,
		"planner.compile_ms":     compileMs,
		"planner.exec_ms":        mean(func(l reqLedger) float64 { return l.exec }),
		"planner.first_batch_ms": mean(func(l reqLedger) float64 { return l.firstBatch }),
		"planner.exec_self_ms":   mean(func(l reqLedger) float64 { return l.execSelf }) - planMs - compileMs,
		"wrapper.busy_ms":        mean(func(l reqLedger) float64 { return l.wrapBusy }),
		"wrapper.covered_ms":     mean(func(l reqLedger) float64 { return l.wrapCovered }),
		"wrapper.overlap_ratio": mean(func(l reqLedger) float64 {
			if l.wrapCovered == 0 {
				return 0
			}
			return l.wrapBusy / l.wrapCovered
		}),
		"wrapper.queries":            mean(func(l reqLedger) float64 { return float64(l.queries) }),
		"wrapper.tuples":             mean(func(l reqLedger) float64 { return float64(l.tuples) }),
		"wrapper.pages":              mean(func(l reqLedger) float64 { return float64(l.pages) }),
		"wrapper.max_inflight":       mean(func(l reqLedger) float64 { return float64(l.maxInflight) }),
		"planner.source_queries":     queries / reqs,
		"planner.tuples_transferred": float64(stats.TuplesTransferred-statsBefore.TuplesTransferred) / reqs,
		"planner.cache_hits":         hits / reqs,
		"planner.cache_hit_ratio":    hits / math.Max(hits+queries, 1),
		"planner.retries":            float64(stats.Retries-statsBefore.Retries) / reqs,
		"planner.branches_run":       float64(stats.BranchesRun-statsBefore.BranchesRun) / reqs,
		"runtime.gc_cycles":          float64(gc.cycles),
		"runtime.gc_pause_ms_total":  float64(gc.pauseNs) * msPerNs,
		"trace.overhead_pct":         (median(slowdown) - 1) * 100,
	}
	// The ledger: the layers' self times should add up to the median
	// request.
	sum := 0.0
	for _, name := range []string{"client.transport_ms", "server.self_ms", "sqlparse.parse_ms", "core.mediate_ms", "wrapper.covered_ms"} {
		sum += m.metrics[name]
	}
	sum += mean(func(l reqLedger) float64 { return l.execSelf })
	m.metrics["ledger.sum_ms"] = sum
	m.metrics["ledger.gap_pct"] = math.Abs(sum-traced) / traced * 100

	if err := relalgProbes(ctx, fed, m.metrics); err != nil {
		return m, err
	}
	if err := writeTrace(filepath.Join(outDir, "trace-"+w.Name+".json"), run.traces); err != nil {
		return m, err
	}
	return m, nil
}

// Ledger limits: ROADMAP item B's bar for the layers adding up, and the
// most the spans themselves may cost.
const (
	ledgerGapLimit     = 5.0
	traceOverheadLimit = 10.0
)

// ledgerErr reports a traced run whose layers do not add up or whose
// tracing cost too much. Only single-client workloads are held to it:
// with two clients the per-request medians mix two query shapes queued
// behind each other.
func ledgerErr(w workloadDef, metrics map[string]float64) error {
	if w.Clients != 1 {
		return nil
	}
	if gap := metrics["ledger.gap_pct"]; gap > ledgerGapLimit {
		return fmt.Errorf("LEDGER CHECK FAILED on %s: layers sum to %.4f ms, %.1f%% off the traced median (limit %.0f%%)",
			w.Name, metrics["ledger.sum_ms"], gap, ledgerGapLimit)
	}
	if over := metrics["trace.overhead_pct"]; over > traceOverheadLimit {
		return fmt.Errorf("LEDGER CHECK FAILED on %s: tracing costs %.1f%% of latency_ms_p50 (limit %.0f%%)",
			w.Name, over, traceOverheadLimit)
	}
	return nil
}

// relalgProbes times the local operators the engine builds its plans
// from, called directly over the federation's relations: the cost of the
// relalg layer with planning, sources and the wire taken away.
func relalgProbes(ctx context.Context, fed *federation, metrics map[string]float64) error {
	r1 := relalg.NewRelation("r1", relalg.NewSchema(
		relalg.Column{Name: "r1.cname", Type: relalg.KindString},
		relalg.Column{Name: "r1.revenue", Type: relalg.KindNumber},
		relalg.Column{Name: "r1.currency", Type: relalg.KindString}))
	for _, r := range fed.r1 {
		r1.Tuples = append(r1.Tuples, relalg.Tuple{relalg.StrV(r.name), relalg.NumV(r.revenue), relalg.StrV(r.currency)})
	}
	r2 := relalg.NewRelation("r2", relalg.NewSchema(
		relalg.Column{Name: "r2.cname", Type: relalg.KindString},
		relalg.Column{Name: "r2.expenses", Type: relalg.KindNumber}))
	for _, r := range fed.r2 {
		r2.Tuples = append(r2.Tuples, relalg.Tuple{relalg.StrV(r.name), relalg.NumV(r.expenses)})
	}
	revenue := sqlparse.Col("r1", "revenue")
	par := runtime.GOMAXPROCS(0)
	probes := []struct {
		name  string
		build func() (relalg.Iterator, error)
	}{
		{"relalg.scan_collect_ms", func() (relalg.Iterator, error) { return relalg.NewScan(r1), nil }},
		{"relalg.hashjoin_ms", func() (relalg.Iterator, error) {
			return relalg.NewHashJoin(relalg.NewScan(r1), relalg.NewScan(r2), []string{"r1.cname"}, []string{"r2.cname"}, nil, false, nil)
		}},
		{"relalg.parallel_hashjoin_ms", func() (relalg.Iterator, error) {
			return relalg.NewParallelHashJoin(relalg.NewScan(r1), relalg.NewScan(r2), []string{"r1.cname"}, []string{"r2.cname"}, nil, false, nil, par)
		}},
		{"relalg.sort_ms", func() (relalg.Iterator, error) {
			return relalg.NewSort(relalg.NewScan(r1), []relalg.OrderKey{{Expr: revenue, Desc: true}}, nil), nil
		}},
		{"relalg.groupby_ms", func() (relalg.Iterator, error) {
			sum := &sqlparse.FuncCall{Name: "SUM", Args: []sqlparse.Expr{revenue}}
			return relalg.NewGroupBy(relalg.NewScan(r1), nil, []relalg.AggItem{{Name: "total", Expr: sum}}, nil, nil), nil
		}},
		{"relalg.distinct_ms", func() (relalg.Iterator, error) { return relalg.NewDistinct(relalg.NewScan(r1)), nil }},
	}
	const rounds = 9
	for _, p := range probes {
		times := make([]float64, 0, rounds)
		for i := 0; i < rounds; i++ {
			it, err := p.build()
			if err != nil {
				return fmt.Errorf("bench: %s: %w", p.name, err)
			}
			t0 := time.Now()
			if _, err := relalg.Collect(ctx, it, ""); err != nil {
				return fmt.Errorf("bench: %s: %w", p.name, err)
			}
			times = append(times, float64(time.Since(t0))/1e6)
		}
		sort.Float64s(times)
		metrics[p.name] = percentile(times, 50)
	}
	return nil
}
