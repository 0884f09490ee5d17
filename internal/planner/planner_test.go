package planner

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/relalg"
	"repro/internal/sqlparse"
	"repro/internal/store"
	"repro/internal/web"
	"repro/internal/wrapper"
)

// paperCatalog wires the Figure 2 sources: two relational sources plus the
// currency Web site wrapped in its crawlable form.
func paperCatalog() (*Catalog, *web.Site) {
	dbs := fixture.Databases()
	cat := NewCatalog()
	cat.MustAddSource(wrapper.NewRelational(dbs["source1"]))
	cat.MustAddSource(wrapper.NewRelational(dbs["source2"]))
	site := web.NewCurrencySite(web.PaperRates())
	cat.MustAddSource(wrapper.NewWeb("currencyweb", site, wrapper.MustParseSpec(wrapper.CurrencySpecCrawl)))
	return cat, site
}

// lookupCatalog uses the parameterized (required-bindings) form of the
// currency site, forcing bind joins.
func lookupCatalog() (*Catalog, *web.Site) {
	dbs := fixture.Databases()
	cat := NewCatalog()
	cat.MustAddSource(wrapper.NewRelational(dbs["source1"]))
	cat.MustAddSource(wrapper.NewRelational(dbs["source2"]))
	site := web.NewCurrencySite(web.PaperRates())
	cat.MustAddSource(wrapper.NewWeb("currencyweb", site, wrapper.MustParseSpec(wrapper.CurrencySpecLookup)))
	return cat, site
}

func TestCatalogBasics(t *testing.T) {
	cat, _ := paperCatalog()
	if len(cat.Relations()) != 3 {
		t.Errorf("relations = %v", cat.Relations())
	}
	if _, err := cat.WrapperFor("zzz"); err == nil {
		t.Error("unknown relation accepted")
	}
	if src, ok := cat.SourceOf("r3"); !ok || src != "currencyweb" {
		t.Errorf("SourceOf(r3) = %s, %v", src, ok)
	}
	// Duplicate relation across sources is rejected.
	dup := store.NewDB("dupsrc")
	dup.MustCreateTable("r1", fixture.R1Schema())
	if err := cat.AddSource(wrapper.NewRelational(dup)); err == nil {
		t.Error("duplicate relation accepted")
	}
}

// TestNaiveQueryWrongAnswer reproduces the paper's motivating failure: Q1
// executed without mediation misses NTT.
func TestNaiveQueryWrongAnswer(t *testing.T) {
	cat, _ := paperCatalog()
	ex := NewExecutor(cat)
	res, err := execute(bg, ex, sqlparse.MustParse(fixture.PaperQ1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range res.Tuples {
		if tup[0].S == "NTT" {
			t.Errorf("naive execution returned NTT; contexts were ignored?\n%s", res)
		}
	}
}

// TestPaperExampleEndToEnd is experiment E1 complete: mediate Q1, execute
// the mediated union, and check the paper's correct answer — the single
// tuple <'NTT', 9 600 000>.
func TestPaperExampleEndToEnd(t *testing.T) {
	for name, build := range map[string]func() (*Catalog, *web.Site){
		"crawl-wrapper":  paperCatalog,
		"lookup-wrapper": lookupCatalog,
	} {
		t.Run(name, func(t *testing.T) {
			cat, _ := build()
			med, err := core.New(fixture.Registry()).MediateSQL(fixture.PaperQ1, "c2")
			if err != nil {
				t.Fatal(err)
			}
			ex := NewExecutor(cat)
			res, err := executeMediation(bg, ex, med)
			if err != nil {
				t.Fatal(err)
			}
			if res.Len() != 1 {
				t.Fatalf("mediated answer has %d tuples, want 1:\n%s", res.Len(), res)
			}
			if res.Tuples[0][0].S != "NTT" || res.Tuples[0][1].N != 9600000 {
				t.Errorf("answer = %v, want <NTT, 9600000>", res.Tuples[0])
			}
		})
	}
}

// TestBindJoinUsesLookups: with the lookup wrapper, the r3 access must be
// fed per-currency (bind join), issuing one page fetch per needed pair
// rather than crawling.
func TestBindJoinUsesLookups(t *testing.T) {
	cat, site := lookupCatalog()
	med, err := core.New(fixture.Registry()).MediateSQL(fixture.PaperQ1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(cat)
	site.ResetHits()
	if _, err := executeMediation(bg, ex, med); err != nil {
		t.Fatal(err)
	}
	// Branch 2 binds JPY→USD by constants (1 fetch); branch 3 feeds
	// fromCur from rl.currency (2 distinct currencies → 2 fetches, one of
	// which 404s? no: all currencies present in rates). Either way the
	// crawl index page (5 pages) must never be touched.
	hits := site.Hits()
	if hits == 0 || hits > 4 {
		t.Errorf("lookup fetches = %d, want a handful of targeted lookups", hits)
	}
}

// TestBindJoinInfeasibleWithoutFeeder: the lookup wrapper cannot answer a
// query that never binds its parameters.
func TestBindJoinInfeasible(t *testing.T) {
	cat, _ := lookupCatalog()
	ex := NewExecutor(cat)
	_, err := execute(bg, ex, sqlparse.MustParse("SELECT r3.rate FROM r3"))
	if err == nil || !strings.Contains(err.Error(), "feasible") {
		t.Errorf("err = %v", err)
	}
}

func TestPlanExplainShape(t *testing.T) {
	cat, _ := lookupCatalog()
	ex := NewExecutor(cat)
	sel := sqlparse.MustParse(
		"SELECT r1.cname FROM r1, r3 WHERE r3.fromCur = r1.currency AND r3.toCur = 'USD'").(*sqlparse.Select)
	plan, err := ex.PlanCtx(bg, sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 2 {
		t.Fatalf("steps = %d", len(plan.Steps))
	}
	// r1 must come first; r3 depends on it.
	if plan.Steps[0].Relation != "r1" || plan.Steps[1].Relation != "r3" {
		t.Errorf("order = %s, %s", plan.Steps[0].Relation, plan.Steps[1].Relation)
	}
	if len(plan.Steps[1].BindJoins) != 1 || plan.Steps[1].BindJoins[0].FromQualified != "r1.currency" {
		t.Errorf("bind joins = %+v", plan.Steps[1].BindJoins)
	}
	exp := plan.Explain()
	if !strings.Contains(exp, "bind[fromCur<=r1.currency]") {
		t.Errorf("explain:\n%s", exp)
	}
}

// TestSelectionPushdown: with a capable source, filters travel to the
// source and fewer tuples transfer; the ablation keeps them local.
func TestSelectionPushdownAblation(t *testing.T) {
	cat, _ := paperCatalog()
	q := sqlparse.MustParse("SELECT r1.cname FROM r1 WHERE r1.currency = 'JPY'")

	ex := NewExecutor(cat)
	if _, err := execute(bg, ex, q); err != nil {
		t.Fatal(err)
	}
	pushed := ex.Stats().TuplesTransferred

	ex2 := NewExecutor(cat)
	ex2.DisablePushdown = true
	res, err := execute(bg, ex2, q)
	if err != nil {
		t.Fatal(err)
	}
	unpushed := ex2.Stats().TuplesTransferred
	if res.Len() != 1 {
		t.Fatalf("result = %s", res)
	}
	if pushed >= unpushed {
		t.Errorf("pushdown transferred %d tuples, ablation %d; pushdown should transfer fewer", pushed, unpushed)
	}
}

func TestJoinAlgorithmsSameResult(t *testing.T) {
	cat, _ := paperCatalog()
	q := sqlparse.MustParse("SELECT r1.cname, r2.expenses FROM r1, r2 WHERE r1.cname = r2.cname")
	a, err := execute(bg, NewExecutor(cat), q)
	if err != nil {
		t.Fatal(err)
	}
	exNL := NewExecutor(cat)
	exNL.ForceNestedLoop = true
	b, err := execute(bg, exNL, q)
	if err != nil {
		t.Fatal(err)
	}
	if !relalg.SameTuples(a, b) {
		t.Errorf("join algorithms disagree:\n%s\nvs\n%s", a, b)
	}
}

func TestAggregateExecution(t *testing.T) {
	cat, _ := paperCatalog()
	ex := NewExecutor(cat)
	res, err := execute(bg, ex, sqlparse.MustParse(
		"SELECT r1.currency, COUNT(*) AS n FROM r1 GROUP BY r1.currency ORDER BY n DESC"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("groups = %s", res)
	}
}

func TestOrderLimitDistinct(t *testing.T) {
	cat, _ := paperCatalog()
	ex := NewExecutor(cat)
	res, err := execute(bg, ex, sqlparse.MustParse(
		"SELECT DISTINCT r3.toCur FROM r3 ORDER BY r3.toCur LIMIT 2"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || res.Tuples[0][0].S != "JPY" {
		t.Errorf("result = %s", res)
	}
}

// TestMediatedAggregation: SUM over converted revenues equals the oracle
// (IBM 1e8 USD + NTT 9.6e6 USD).
func TestMediatedAggregation(t *testing.T) {
	cat, _ := paperCatalog()
	med, err := core.New(fixture.Registry()).MediateSQL(
		"SELECT SUM(r1.revenue) AS total FROM r1", "c2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := executeMediation(bg, NewExecutor(cat), med)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("result = %s", res)
	}
	want := 100000000.0 + 9600000.0
	if res.Tuples[0][0].N != want {
		t.Errorf("SUM = %v, want %v", res.Tuples[0][0], want)
	}
}

// TestMediationOracleEquivalence is the cross-module property test: on
// randomized workloads of the Figure 2 shape, executing the mediated
// query must equal a direct Go computation of the receiver-context
// answer.
func TestMediationOracleEquivalence(t *testing.T) {
	med, err := core.New(fixture.Registry()).MediateSQL(fixture.PaperQ1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 8; seed++ {
		w := fixture.NewScaledWorkload(60, seed)
		cat := NewCatalog()
		db1 := store.NewDB("source1")
		t1 := db1.MustCreateTable("r1", fixture.R1Schema())
		for _, row := range w.R1.Tuples {
			if err := t1.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		db2 := store.NewDB("source2")
		t2 := db2.MustCreateTable("r2", fixture.R2Schema())
		for _, row := range w.R2.Tuples {
			if err := t2.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		db3 := store.NewDB("currencyweb")
		t3 := db3.MustCreateTable("r3", fixture.R3Schema())
		for _, row := range w.R3.Tuples {
			if err := t3.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		cat.MustAddSource(wrapper.NewRelational(db1))
		cat.MustAddSource(wrapper.NewRelational(db2))
		cat.MustAddSource(wrapper.NewRelational(db3))

		res, err := executeMediation(bg, NewExecutor(cat), med)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Compare as sets of (name, rounded revenue) to dodge float noise.
		round := func(rel *relalg.Relation) map[string]int64 {
			out := map[string]int64{}
			for _, tup := range rel.Tuples {
				out[tup[0].S] = int64(tup[1].N*100 + 0.5)
			}
			return out
		}
		got, want := round(res), round(w.Expected)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d answers, want %d", seed, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("seed %d: %s = %d, want %d", seed, k, got[k], v)
			}
		}
	}
}

// TestUnreachableSourceError: failure injection — a source that errors
// propagates a useful message instead of a silent empty answer.
func TestUnreachableSourceError(t *testing.T) {
	dbs := fixture.Databases()
	cat := NewCatalog()
	cat.MustAddSource(wrapper.NewRelational(dbs["source1"]))
	cat.MustAddSource(wrapper.NewRelational(dbs["source2"]))
	// The currency "site" has no pages: every fetch fails.
	cat.MustAddSource(wrapper.NewWeb("currencyweb", web.NewSite("dead"),
		wrapper.MustParseSpec(wrapper.CurrencySpecCrawl)))
	med, err := core.New(fixture.Registry()).MediateSQL(fixture.PaperQ1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	_, err = executeMediation(bg, NewExecutor(cat), med)
	if err == nil || !strings.Contains(err.Error(), "fetching") {
		t.Errorf("err = %v", err)
	}
}

func TestExecStatsCount(t *testing.T) {
	cat, _ := paperCatalog()
	ex := NewExecutor(cat)
	if _, err := execute(bg, ex, sqlparse.MustParse("SELECT r1.cname FROM r1")); err != nil {
		t.Fatal(err)
	}
	st := ex.Stats()
	if st.SourceQueries != 1 || st.TuplesTransferred != 2 || st.BranchesRun != 1 {
		t.Errorf("stats = %+v", st)
	}
	ex.ResetStats()
	if ex.Stats().SourceQueries != 0 {
		t.Error("ResetStats failed")
	}
}

// TestGroupByKeyOfSecondRelation: a grouped join keys and aggregates on
// the columns the query names, even when both relations have a column of
// that name (b.k here, not a.k).
func TestGroupByKeyOfSecondRelation(t *testing.T) {
	db := store.NewDB("src")
	num := func(n string) relalg.Column { return relalg.Column{Name: n, Type: relalg.KindNumber} }
	a := db.MustCreateTable("a", relalg.NewSchema(num("j"), num("k")))
	b := db.MustCreateTable("b", relalg.NewSchema(num("j"), num("k")))
	for i := 0; i < 4; i++ {
		a.MustInsert(relalg.NumV(float64(i)), relalg.NumV(float64(i)))
		b.MustInsert(relalg.NumV(float64(i)), relalg.NumV(7))
	}
	cat := NewCatalog()
	cat.MustAddSource(wrapper.NewRelational(db))
	res, err := execute(bg, NewExecutor(cat), sqlparse.MustParse(
		"SELECT b.k, COUNT(*), SUM(b.k) FROM a, b WHERE a.j = b.j GROUP BY b.k"))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.String(); res.Len() != 1 || res.Tuples[0][0].N != 7 || res.Tuples[0][1].N != 4 || res.Tuples[0][2].N != 28 {
		t.Errorf("GROUP BY b.k =\n%s\nwant one group k=7, count 4, sum 28", got)
	}
}
