package main

import "time"

// metricDef names one metric of the benchmark. Bound is the share of the
// baseline's median by which an end-to-end metric may worsen before
// --compare calls it a regression; per-layer metrics carry none. The
// wall-clock metrics carry the widest bound the driver allows: on the
// shared two-core reference box their run-to-run spread reaches 12% of
// the median even read from the quietest segments (README.md, "Noise").
// BENCHMARK.json at the root of the repository lists the same metrics;
// TestBenchmarkJSONMatchesSpec keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd lists what a receiver of the system sees, in the order they
// are printed. Every workload reports every metric: on the buffered
// endpoint the first row is in the receiver's hands when the body has
// been decoded, so ttfr_ms_p50 equals latency_ms_p50 there.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_ms_p50", "ms", "lower", 0.25},
	{"latency_ms_tail", "ms", "lower", 0.25},
	{"ttfr_ms_p50", "ms", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"rows_per_s", "1/s", "higher", 0.25},
	{"source_queries_per_req", "count", "lower", 0.01},
	{"source_tuples_per_req", "count", "lower", 0.01},
	{"alloc_kb_per_req", "kB", "lower", 0.03},
	{"heap_live_mb_end", "MB", "lower", 0.10},
}

// layerDef is a per-layer metric (its layer is the first part of its
// name) together with the prediction the interaction table of README.md
// makes for it.
type layerDef struct {
	metricDef
	Moves string // the end-to-end metric and workload it should move
}

func layer(name, unit, better, moves string) layerDef {
	return layerDef{metricDef{Name: name, Unit: unit, Better: better}, moves}
}

// perLayer lists the traced run's metrics from the receiver inwards.
// Times are medians per request unless the name says otherwise.
var perLayer = []layerDef{
	layer("client.transport_ms", "ms", "lower", "latency_ms_p50 on paper_*; rows_per_s on scale_stream"),
	layer("server.handler_ms", "ms", "lower", "latency_ms_p50 on paper_*, scale_stream; qps on scale_post_2c"),
	layer("server.self_ms", "ms", "lower", "latency_ms_p50 on paper_*; rows_per_s on scale_stream; qps on scale_post_2c"),
	layer("server.resp_kb", "kB", "lower", "rows_per_s on scale_stream; qps on scale_post_2c"),
	layer("sqlparse.parse_ms", "ms", "lower", "latency_ms_p50 on paper_* (predicted <5%)"),
	layer("core.mediate_ms", "ms", "lower", "latency_ms_p50 on paper_repeat, paper_unique"),
	layer("core.branches", "count", "lower", "latency_ms_p50 on paper_*"),
	layer("core.warm_ms", "ms", "lower", "latency_ms_tail on paper_unique; setup_s"),
	layer("planner.plan_ms", "ms", "lower", "latency_ms_p50 on paper_*"),
	layer("planner.compile_ms", "ms", "lower", "latency_ms_p50 on paper_*"),
	layer("planner.exec_ms", "ms", "lower", "latency_ms_p50 everywhere"),
	layer("planner.first_batch_ms", "ms", "lower", "ttfr_ms_p50 on scale_stream"),
	layer("planner.exec_self_ms", "ms", "lower", "latency_ms_p50 on scale_stream; qps on scale_post_2c"),
	layer("planner.source_queries", "count", "lower", "source_queries_per_req everywhere; latency_ms_p50 on slow_sources"),
	layer("planner.tuples_transferred", "count", "lower", "source_tuples_per_req everywhere"),
	layer("planner.cache_hits", "count", "higher", "source_queries_per_req on slow_sources"),
	layer("planner.cache_hit_ratio", "ratio", "higher", "source_queries_per_req on slow_sources"),
	layer("planner.retries", "count", "lower", "latency_ms_tail everywhere (0 on healthy sources)"),
	layer("planner.branches_run", "count", "lower", "source_queries_per_req everywhere"),
	layer("wrapper.busy_ms", "ms", "lower", "latency_ms_p50 on slow_sources"),
	layer("wrapper.covered_ms", "ms", "lower", "latency_ms_p50 on slow_sources (its floor)"),
	layer("wrapper.overlap_ratio", "ratio", "higher", "latency_ms_p50 on slow_sources"),
	layer("wrapper.queries", "count", "lower", "source_queries_per_req everywhere"),
	layer("wrapper.tuples", "count", "lower", "source_tuples_per_req everywhere"),
	layer("wrapper.pages", "count", "lower", "latency_ms_p50 on slow_sources, paper_*"),
	layer("wrapper.max_inflight", "count", "higher", "latency_ms_p50 on slow_sources"),
	layer("relalg.scan_collect_ms", "ms", "lower", "latency_ms_p50 on scale_stream"),
	layer("relalg.hashjoin_ms", "ms", "lower", "latency_ms_p50 on scale_stream"),
	layer("relalg.parallel_hashjoin_ms", "ms", "lower", "latency_ms_p50 on scale_stream"),
	layer("relalg.sort_ms", "ms", "lower", "qps on scale_post_2c"),
	layer("relalg.groupby_ms", "ms", "lower", "qps on scale_post_2c"),
	layer("relalg.distinct_ms", "ms", "lower", "latency_ms_p50 on scale_stream"),
	layer("runtime.gc_cycles", "count", "lower", "latency_ms_tail everywhere"),
	layer("runtime.gc_pause_ms_total", "ms", "lower", "latency_ms_tail everywhere"),
	layer("trace.overhead_pct", "%", "lower", "none: the cost of the spans themselves"),
	layer("ledger.sum_ms", "ms", "lower", "none: the layer self times added up"),
	layer("ledger.gap_pct", "%", "lower", "none: |ledger.sum_ms - traced latency_ms_p50| as a share"),
}

// Query templates, all posed in receiver context c2. %d is the literal K.
const (
	tSelect = iota // T1: selection on r1, 3 branches
	tJoin          // T2: the paper's Q1 join, 3 branches
	tSum           // T3: SUM over r1, 3 branches + post-union aggregate
	tOrder         // T4: ORDER BY over r1, 3 branches + post-union sort
	tR2            // T5: selection on r2 only, 1 branch
)

var templateSQL = [...]string{
	tSelect: "SELECT r1.cname, r1.revenue FROM r1 WHERE r1.revenue > %d",
	tJoin:   "SELECT rl.cname, rl.revenue FROM r1 rl, r2 WHERE rl.cname = r2.cname AND rl.revenue > r2.expenses AND rl.revenue > %d",
	tSum:    "SELECT SUM(r1.revenue) AS total FROM r1 WHERE r1.revenue > %d",
	tOrder:  "SELECT r1.cname, r1.revenue FROM r1 WHERE r1.revenue > %d ORDER BY r1.revenue DESC",
	tR2:     "SELECT r2.cname, r2.expenses FROM r2 WHERE r2.expenses > %d",
}

// workloadDef is one traffic mix over one generated federation.
type workloadDef struct {
	Name string
	Why  string
	// Federation: companies, currencies, how the currency site is
	// wrapped ("" = relational table, "crawl", "lookup") and the delay
	// every source query and page fetch pays.
	N          int
	Currencies int
	Web        string
	Delay      time.Duration
	// Traffic: closed-loop clients, endpoint, templates, and the ranks
	// the literal K is placed above (K sits between revenue rank and
	// rank+1, so the answer size is the same for every seed).
	Clients   int
	Stream    bool
	Templates []int
	Ranks     []int
	// Alternate makes client c send text (i+c) mod len in turn instead
	// of drawing texts uniformly.
	Alternate bool
	// Unique gives every request its own K and registers a new source
	// before every churnEvery-th request.
	Unique bool
	// TailPct is the percentile latency_ms_tail reports: the highest one
	// that leaves at least ten samples beyond it in the quarter of the
	// window it is read from (see phase.quiet).
	TailPct float64
}

const churnEvery = 2000

var paperRanks = []int{0, 1, 2, 3, 4, 5, 6, 7}

var workloads = []workloadDef{
	{
		Name: "paper_repeat",
		Why:  "Figure 2 at paper size, 40 query texts repeated: mediation, planning and HTTP dominate, and reuse keyed on text can show",
		N:    8, Currencies: 4, Web: "crawl",
		Clients: 1, Templates: []int{tSelect, tJoin, tSum, tOrder, tR2}, Ranks: paperRanks,
		TailPct: 99,
	},
	{
		Name: "paper_unique",
		Why:  "same federation, every text distinct and a source registered every 2000 requests: text- or version-keyed reuse is bypassed and churned",
		N:    8, Currencies: 4, Web: "crawl",
		Clients: 1, Templates: []int{tSelect, tJoin, tSum, tOrder, tR2}, Ranks: paperRanks,
		Unique: true, TailPct: 99,
	},
	{
		Name: "scale_stream",
		Why:  "10,000 companies, the Q1 join streamed as NDJSON: relalg join/union, source scans and row encoding do the work, first row long before last",
		N:    10000, Currencies: 4,
		Clients: 1, Stream: true, Templates: []int{tJoin}, Ranks: []int{0, 100, 200, 300, 400, 500, 600, 700},
		TailPct: 95,
	},
	{
		Name: "scale_post_2c",
		Why:  "same federation, 2 clients alternating SUM and a 10,000-row ORDER BY over the buffered endpoint: breakers, exchanges and the JSON encoder under contention",
		N:    10000, Currencies: 4,
		Clients: 2, Templates: []int{tSum, tOrder, tOrder}, Ranks: []int{0}, Alternate: true,
		TailPct: 95,
	},
	{
		Name: "slow_sources",
		Why:  "500 companies, 32 currencies, 2 ms per source query and page, currency site in lookup form: latency is source round-trips, only the source-access layer can move it",
		N:    500, Currencies: 32, Web: "lookup", Delay: 2 * time.Millisecond,
		Clients: 1, Templates: []int{tJoin}, Ranks: []int{0, 5, 10, 15, 20, 25, 30, 35},
		TailPct: 90,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
