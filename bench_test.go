// Package repro_test is the benchmark harness of the reproduction: one
// benchmark (or benchmark family) per experiment in DESIGN.md §4, covering
// every figure and claim the paper makes. EXPERIMENTS.md records the
// paper-vs-measured comparison; `go test -bench=. -benchmem` regenerates
// the measured side.
package repro_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/coin"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/planner"
	"repro/internal/relalg"
	"repro/internal/sqlparse"
	"repro/internal/store"
	"repro/internal/web"
	"repro/internal/wrapper"
	"repro/internal/wrapper/wrappertest"
)

// --- E1: the Section 3 worked example -----------------------------------

// BenchmarkE1_PaperExample measures the full pipeline of the paper's
// demonstration: parse Q1, mediate it in context c2, execute the 3-branch
// union across the three sources, return <NTT, 9600000>.
func BenchmarkE1_PaperExample(b *testing.B) {
	sys := coin.Figure2System()
	if err := sys.Mediator().Warm("c2"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := sys.Query(coin.PaperQ1, "c2")
		if err != nil {
			b.Fatal(err)
		}
		if rows.Len() != 1 || rows.Tuples[0][0].S != "NTT" {
			b.Fatalf("wrong answer: %s", rows)
		}
	}
}

// BenchmarkE1b_MediationOnly isolates the rewriting of one text, both
// ways a request can meet it: shape=cold is the first sight of a query
// shape on a warm program (compile + abductive solve + instantiate +
// emit), shape=warm every later one (instantiate + emit on the memoised
// derivation; see internal/core/shape.go).
func BenchmarkE1b_MediationOnly(b *testing.B) {
	sys := coin.Figure2System()
	mediate := func(b *testing.B) {
		med, err := sys.Mediate(coin.PaperQ1, "c2")
		if err != nil {
			b.Fatal(err)
		}
		if len(med.Branches) != 3 {
			b.Fatalf("branches = %d", len(med.Branches))
		}
	}
	warm := func(b *testing.B) {
		if err := sys.Mediator().Warm("c2"); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("shape=cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sys.Mediator().Invalidate() // a fresh program: no shape solved yet
			warm(b)
			b.StartTimer()
			mediate(b)
		}
	})
	b.Run("shape=warm", func(b *testing.B) {
		b.ReportAllocs()
		warm(b)
		mediate(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mediate(b)
		}
	})
}

// BenchmarkE1c_ExecutionOnly isolates plan+execute of the mediated union.
func BenchmarkE1c_ExecutionOnly(b *testing.B) {
	sys := coin.Figure2System()
	med, err := sys.Mediate(coin.PaperQ1, "c2")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.ExecuteWarnCtx(context.Background(), med, coin.QueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultFreeOverhead is E1c with the fault-tolerance machinery
// armed (retry policy on, circuit breakers on — both are on the per-query
// and per-tuple paths) but no fault injected. It gates the cost of the
// robustness layer on healthy executions: the numbers must stay within
// noise of BenchmarkE1c_ExecutionOnly.
func BenchmarkFaultFreeOverhead(b *testing.B) {
	sys := coin.Figure2System()
	ex := sys.Executor()
	ex.Retry = planner.RetryPolicy{MaxAttempts: 3}
	med, err := sys.Mediate(coin.PaperQ1, "c2")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.ExecuteWarnCtx(context.Background(), med, coin.QueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3: Figure 1 architecture over HTTP --------------------------------

// BenchmarkE3_EndToEndHTTP runs the paper's query through the whole
// receiver stack: Go client -> HTTP-tunneled protocol -> server ->
// mediation engine -> multi-DB engine -> wrappers -> sources.
func BenchmarkE3_EndToEndHTTP(b *testing.B) {
	sys := coin.Figure2System()
	ts := httptest.NewServer(sys.Handler())
	defer ts.Close()
	conn, err := client.Open(ts.URL)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := conn.QueryCtx(context.Background(), coin.PaperQ1, "c2", client.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 {
			b.Fatalf("rows = %v", res.Rows)
		}
	}
}

// --- E4: scalability in the number of *registered* sources --------------

// BenchmarkE4_MediationVsRegisteredSources shows mediation cost tracks the
// sources a query touches, not the federation size: Q1 always touches 3
// relations while the registry grows from 3 to 67.
func BenchmarkE4_MediationVsRegisteredSources(b *testing.B) {
	for _, extra := range []int{0, 8, 32, 64} {
		b.Run(fmt.Sprintf("registered=%d", 3+extra), func(b *testing.B) {
			med := core.New(fixture.WideRegistry(extra))
			if err := med.Warm("c2"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := med.MediateSQL(fixture.PaperQ1, "c2")
				if err != nil {
					b.Fatal(err)
				}
				if len(m.Branches) != 3 {
					b.Fatalf("branches = %d", len(m.Branches))
				}
			}
		})
	}
}

// --- E5: mediated-query growth with genuine conflicts -------------------

// BenchmarkE5_MediationVsConflicts sweeps the number m of independent
// two-way modifier case splits; the mediated query has 2^m branches, so
// cost grows with the conflicts involved (and only with them).
func BenchmarkE5_MediationVsConflicts(b *testing.B) {
	for m := 0; m <= 4; m++ {
		b.Run(fmt.Sprintf("modifiers=%d/branches=%d", m, 1<<m), func(b *testing.B) {
			med := core.New(fixture.ConflictRegistry(m))
			if err := med.Warm("recv"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := med.MediateSQL("SELECT wide.val FROM wide", "recv")
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Branches) != 1<<m {
					b.Fatalf("branches = %d", len(res.Branches))
				}
			}
		})
	}
}

// --- E8: the [Qu96] Web-wrapping technology ------------------------------

// BenchmarkE8_WebWrapperExtract crawls generated currency sites of
// increasing size through the transition network + regex runtime.
func BenchmarkE8_WebWrapperExtract(b *testing.B) {
	currencies := []string{"USD", "JPY", "EUR", "GBP", "CHF", "CAD", "AUD", "SEK", "NOK", "DKK", "NZD"}
	for _, n := range []int{4, 10, 50, 110} {
		rates := map[web.RatePair]float64{}
		for i := 0; len(rates) < n; i++ {
			from := currencies[i%len(currencies)]
			to := currencies[(i/len(currencies)+1+i)%len(currencies)]
			if from != to {
				rates[web.RatePair{From: from, To: to}] = 1.0 + float64(i)/100
			}
		}
		site := web.NewCurrencySite(rates)
		w := wrapper.NewWeb("bench", site, wrapper.MustParseSpec(wrapper.CurrencySpecCrawl))
		b.Run(fmt.Sprintf("pages=%d", len(rates)+1), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rel, err := w.Query(context.Background(), wrapper.SourceQuery{Relation: "r3"})
				if err != nil {
					b.Fatal(err)
				}
				if rel.Len() != len(rates) {
					b.Fatalf("extracted %d, want %d", rel.Len(), len(rates))
				}
			}
		})
	}
}

// --- E9: the multi-database engine (capabilities + costs) ----------------

// scaledCatalog builds relational sources over a ScaledWorkload.
func scaledCatalog(n int, seed int64) (*planner.Catalog, *fixture.ScaledWorkload) {
	w := fixture.NewScaledWorkload(n, seed)
	cat := planner.NewCatalog()
	mk := func(src, rel string, schema coin.Schema, rows []relalg.Tuple) {
		db := store.NewDB(src)
		tab := db.MustCreateTable(rel, schema)
		for _, row := range rows {
			if err := tab.Insert(row); err != nil {
				panic(err)
			}
		}
		cat.MustAddSource(wrapper.NewRelational(db))
	}
	mk("source1", "r1", fixture.R1Schema(), w.R1.Tuples)
	mk("source2", "r2", fixture.R2Schema(), w.R2.Tuples)
	mk("currencyweb", "r3", fixture.R3Schema(), w.R3.Tuples)
	return cat, w
}

// BenchmarkE9_MediatedExecutionScale executes the paper-shaped mediated
// query over growing workloads.
func BenchmarkE9_MediatedExecutionScale(b *testing.B) {
	med, err := core.New(fixture.Registry()).MediateSQL(fixture.PaperQ1, "c2")
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{100, 1000, 10000} {
		cat, w := scaledCatalog(n, 42)
		b.Run(fmt.Sprintf("companies=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := executeMediation(planner.NewExecutor(cat), med)
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() != w.Expected.Len() {
					b.Fatalf("answers = %d, want %d", res.Len(), w.Expected.Len())
				}
			}
		})
	}
}

// BenchmarkE9b_JoinAlgorithms is the join-algorithm ablation: hash vs
// nested-loop on the paper-shaped mediated query.
func BenchmarkE9b_JoinAlgorithms(b *testing.B) {
	med, err := core.New(fixture.Registry()).MediateSQL(fixture.PaperQ1, "c2")
	if err != nil {
		b.Fatal(err)
	}
	cat, _ := scaledCatalog(1000, 42)
	for _, alg := range []string{"hash", "nested-loop"} {
		b.Run("join="+alg, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ex := planner.NewExecutor(cat)
				ex.ForceNestedLoop = alg == "nested-loop"
				if _, err := executeMediation(ex, med); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9c_PushdownAblation compares tuples transferred and wall time
// with selection pushdown on and off.
func BenchmarkE9c_PushdownAblation(b *testing.B) {
	cat, _ := scaledCatalog(5000, 42)
	q := "SELECT r1.cname FROM r1 WHERE r1.currency = 'JPY'"
	for _, disable := range []bool{false, true} {
		name := "pushdown=on"
		if disable {
			name = "pushdown=off"
		}
		b.Run(name, func(b *testing.B) {
			var transferred int
			for i := 0; i < b.N; i++ {
				ex := planner.NewExecutor(cat)
				ex.DisablePushdown = disable
				if _, err := execute(ex, sqlparse.MustParse(q)); err != nil {
					b.Fatal(err)
				}
				transferred = ex.Stats().TuplesTransferred
			}
			b.ReportMetric(float64(transferred), "tuples-moved")
		})
	}
}

// BenchmarkE9d_BindJoinVsCrawl compares the two wrapper forms of the same
// currency site on the paper's query: the parameterized lookup form
// fetches a handful of targeted pages; the crawl form walks the index.
func BenchmarkE9d_BindJoinVsCrawl(b *testing.B) {
	med, err := core.New(fixture.Registry()).MediateSQL(fixture.PaperQ1, "c2")
	if err != nil {
		b.Fatal(err)
	}
	for _, form := range []string{"crawl", "lookup"} {
		b.Run("wrapper="+form, func(b *testing.B) {
			dbs := fixture.Databases()
			cat := planner.NewCatalog()
			cat.MustAddSource(wrapper.NewRelational(dbs["source1"]))
			cat.MustAddSource(wrapper.NewRelational(dbs["source2"]))
			site := web.NewCurrencySite(web.PaperRates())
			spec := wrapper.CurrencySpecCrawl
			if form == "lookup" {
				spec = wrapper.CurrencySpecLookup
			}
			cat.MustAddSource(wrapper.NewWeb("currencyweb", site, wrapper.MustParseSpec(spec)))
			var pages int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				site.ResetHits()
				res, err := executeMediation(planner.NewExecutor(cat), med)
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() != 1 {
					b.Fatalf("answer = %s", res)
				}
				pages = site.Hits()
			}
			b.ReportMetric(float64(pages), "pages-fetched")
		})
	}
}

// --- E10: the source access layer ----------------------------------------

// BenchmarkBindJoinBatched measures the dominant communication cost of a
// federation scenario: a bind join fanning N distinct feeder values into
// a slow source (simulated per-query latency). The IN-capable batched
// path issues ⌈N/BatchSize⌉ source queries where the unbatched ablation
// issues N, and the dispatcher overlaps them up to the source's
// concurrency cap, so wall-clock improves on both axes.
func BenchmarkBindJoinBatched(b *testing.B) {
	const n = 64
	const batch = 16
	buildCat := func() (*planner.Catalog, *wrappertest.Counter) {
		fdb := store.NewDB("feedsrc")
		ftab := fdb.MustCreateTable("feed", relalg.NewSchema(
			relalg.Column{Name: "k", Type: relalg.KindString}))
		tdb := store.NewDB("bindsrc")
		ttab := tdb.MustCreateTable("tgt", relalg.NewSchema(
			relalg.Column{Name: "k", Type: relalg.KindString},
			relalg.Column{Name: "v", Type: relalg.KindNumber}))
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("k%03d", i)
			ftab.MustInsert(coin.StrV(k))
			ttab.MustInsert(coin.StrV(k), coin.NumV(float64(i)))
		}
		rw := wrapper.NewRelational(tdb)
		rw.BatchSize = batch
		rw.Require = map[string][]string{"tgt": {"k"}}
		ctr := wrappertest.NewCounter(rw)
		ctr.Delay = 200 * time.Microsecond
		cat := planner.NewCatalog()
		cat.MustAddSource(wrapper.NewRelational(fdb))
		cat.MustAddSource(ctr)
		return cat, ctr
	}
	q := sqlparse.MustParse("SELECT feed.k, tgt.v FROM feed, tgt WHERE tgt.k = feed.k")
	for _, mode := range []string{"batched", "unbatched"} {
		b.Run("probes="+mode, func(b *testing.B) {
			cat, _ := buildCat()
			var queries int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ex := planner.NewExecutor(cat)
				ex.DisableBatching = mode == "unbatched"
				res, err := execute(ex, q)
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() != n {
					b.Fatalf("rows = %d, want %d", res.Len(), n)
				}
				queries = ex.Stats().SourceQueries
			}
			b.ReportMetric(float64(queries), "source-queries")
		})
	}
}

// --- E6/E7 timing companions ---------------------------------------------

// BenchmarkE6_RegisterSource measures the cost of integrating one new
// source (context + elevation + recompile) into a live system.
func BenchmarkE6_RegisterSource(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys := coin.Figure2System()
		db := store.NewDB("source3")
		tab := db.MustCreateTable("r4", fixture.R1Schema())
		tab.MustInsert(coin.StrV("SAP"), coin.NumV(1), coin.StrV("EUR"))
		b.StartTimer()

		c3 := coin.NewContext("c3")
		if err := c3.DeclareConst("companyFinancials", "scaleFactor", 1000); err != nil {
			b.Fatal(err)
		}
		if err := c3.DeclareConst("companyFinancials", "currency", "EUR"); err != nil {
			b.Fatal(err)
		}
		if err := sys.AddContext(c3); err != nil {
			b.Fatal(err)
		}
		if err := sys.AddRelationalSource(db, map[string]*coin.Elevation{
			"r4": {Relation: "r4", Context: "c3", Columns: []coin.ElevatedColumn{
				{Column: "cname", SemType: "companyName"},
				{Column: "revenue", SemType: "companyFinancials"},
			}},
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Mediate("SELECT r4.revenue FROM r4", "c2"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7_QueryKinds times each query class over the same knowledge.
func BenchmarkE7_QueryKinds(b *testing.B) {
	sys := coin.Figure2System()
	queries := map[string]string{
		"projection": "SELECT r1.cname, r1.revenue FROM r1",
		"selection":  "SELECT r1.cname FROM r1 WHERE r1.revenue > 5000000",
		"join":       fixture.PaperQ1,
		"aggregate":  "SELECT SUM(r1.revenue) AS total FROM r1",
		"orderby":    "SELECT r1.cname, r1.revenue FROM r1 ORDER BY r1.revenue DESC",
	}
	for name, q := range queries {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sys.Query(q, "c2"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E11: cost-based plan enumeration + adaptive statistics --------------

// BenchmarkJoinOrderAdaptive measures what the optimizer's feedback loop
// buys on a query where the greedy, statically-priced order is provably
// bad: three relations with skewed cardinalities whose sources
// misestimate themselves (the big one low, the small one high) around a
// keyed source answering a constant number of rows per probe. The greedy
// static plan drives the bind join from the big relation's thousand keys;
// after one warm-up execution populates the adaptive statistics store,
// the replanned (DP) query drives it from the five-key relation instead
// and transfers over 5x fewer source tuples. plan=greedy-static is the
// DisableReorder + nil-AdaptiveStats ablation — today's planner.
func BenchmarkJoinOrderAdaptive(b *testing.B) {
	const (
		aRows = 1000
		perK  = 10
	)
	buildCat := func() *planner.Catalog {
		adb := store.NewDB("srcA")
		atab := adb.MustCreateTable("a", relalg.NewSchema(
			relalg.Column{Name: "k", Type: relalg.KindString},
			relalg.Column{Name: "v", Type: relalg.KindNumber}))
		bdb := store.NewDB("srcB")
		btab := bdb.MustCreateTable("b", relalg.NewSchema(
			relalg.Column{Name: "k", Type: relalg.KindString},
			relalg.Column{Name: "w", Type: relalg.KindNumber}))
		tdb := store.NewDB("srcT")
		ttab := tdb.MustCreateTable("t", relalg.NewSchema(
			relalg.Column{Name: "k", Type: relalg.KindString},
			relalg.Column{Name: "p", Type: relalg.KindNumber}))
		for i := 0; i < aRows; i++ {
			k := fmt.Sprintf("k%04d", i)
			atab.MustInsert(coin.StrV(k), coin.NumV(float64(i)))
			for j := 0; j < perK; j++ {
				ttab.MustInsert(coin.StrV(k), coin.NumV(float64(i*perK+j)))
			}
		}
		for i := 0; i < 5; i++ {
			btab.MustInsert(coin.StrV(fmt.Sprintf("k%04d", i)), coin.NumV(float64(i)))
		}
		aw := wrappertest.NewCounter(wrapper.NewRelational(adb))
		aw.RowEstimates = map[string]int{"a": 5}
		bw := wrappertest.NewCounter(wrapper.NewRelational(bdb))
		bw.RowEstimates = map[string]int{"b": 2000}
		tr := wrapper.NewRelational(tdb)
		tr.Require = map[string][]string{"t": {"k"}}
		tw := wrappertest.NewCounter(tr)
		tw.RowEstimates = map[string]int{"t": aRows * perK}
		cat := planner.NewCatalog()
		cat.MustAddSource(aw)
		cat.MustAddSource(bw)
		cat.MustAddSource(tw)
		return cat
	}
	q := sqlparse.MustParse("SELECT a.v, b.w, t.p FROM a, b, t WHERE t.k = a.k AND t.k = b.k")
	for _, mode := range []string{"adaptive", "greedy-static"} {
		b.Run("plan="+mode, func(b *testing.B) {
			cat := buildCat()
			ex := planner.NewExecutor(cat)
			if mode == "greedy-static" {
				ex.DisableReorder = true
				ex.AdaptiveStats = nil
			} else {
				// One warm-up execution teaches the stats store the real
				// cardinalities; the measured loop runs replanned queries.
				if _, err := execute(ex, q); err != nil {
					b.Fatal(err)
				}
			}
			before := ex.Stats()
			var rows int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := execute(ex, q)
				if err != nil {
					b.Fatal(err)
				}
				rows = res.Len()
			}
			b.StopTimer()
			if rows != 5*perK {
				b.Fatalf("rows = %d, want %d", rows, 5*perK)
			}
			st := ex.Stats()
			b.ReportMetric(float64(st.TuplesTransferred-before.TuplesTransferred)/float64(b.N), "tuples-moved")
			b.ReportMetric(float64(st.SourceQueries-before.SourceQueries)/float64(b.N), "source-queries")
		})
	}
}
