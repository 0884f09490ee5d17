package planner

// Tests for the layered optimizer: the DP enumerator vs the greedy
// ablation, plan determinism, the adaptive statistics feedback loop, and
// EXPLAIN ANALYZE's actual counters.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/relalg"
	"repro/internal/sqlparse"
	"repro/internal/store"
	"repro/internal/wrapper"
	"repro/internal/wrapper/wrappertest"
)

// skewedCatalog builds the join-order stress scenario: a big relation
// whose source badly underestimates itself, a small one that
// overestimates itself, and a keyed (required-binding) source whose
// per-probe answer is constant — so the probe count, and with it the
// tuples transferred, is decided entirely by the access order.
//
//	a: aRows rows, k unique            (static estimate lies low: 5)
//	b: 5 rows, k in a's first 5 keys   (static estimate lies high: 2000)
//	t: requires k; perK rows per key   (honest static estimate)
//
// Query: SELECT ... FROM a, b, t WHERE t.k = a.k AND t.k = b.k.
// Static-greedy places a first and probes t once per a-key; a learned
// plan places b first and probes t five times.
func skewedCatalog(aRows, perK int) (*Catalog, *wrappertest.Counter) {
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
		atab.MustInsert(relalg.StrV(k), relalg.NumV(float64(i)))
		for j := 0; j < perK; j++ {
			ttab.MustInsert(relalg.StrV(k), relalg.NumV(float64(i*perK+j)))
		}
	}
	for i := 0; i < 5; i++ {
		btab.MustInsert(relalg.StrV(fmt.Sprintf("k%04d", i)), relalg.NumV(float64(i)))
	}

	aw := wrappertest.NewCounter(wrapper.NewRelational(adb))
	aw.RowEstimates = map[string]int{"a": 5}
	bw := wrappertest.NewCounter(wrapper.NewRelational(bdb))
	bw.RowEstimates = map[string]int{"b": 2000}
	tr := wrapper.NewRelational(tdb)
	tr.Require = map[string][]string{"t": {"k"}}
	tw := wrappertest.NewCounter(tr)
	tw.RowEstimates = map[string]int{"t": aRows * perK}

	cat := NewCatalog()
	cat.MustAddSource(aw)
	cat.MustAddSource(bw)
	cat.MustAddSource(tw)
	return cat, tw
}

const skewedQ = "SELECT a.v, b.w, t.p FROM a, b, t WHERE t.k = a.k AND t.k = b.k"

// TestAdaptiveReplanBeatsStaticGreedy is the acceptance scenario: one
// warm-up execution populates the stats store, and the replanned query
// transfers at least 5x fewer source tuples than the DisableReorder
// greedy plan working from static estimates.
func TestAdaptiveReplanBeatsStaticGreedy(t *testing.T) {
	q := sqlparse.MustParse(skewedQ)

	// Today's planner: greedy order, no learning.
	catG, _ := skewedCatalog(200, 5)
	exG := NewExecutor(catG)
	exG.DisableReorder = true
	exG.AdaptiveStats = nil
	resG, err := execute(bg, exG, q)
	if err != nil {
		t.Fatal(err)
	}
	greedyTuples := exG.Stats().TuplesTransferred

	// The adaptive optimizer: warm-up, then replan.
	catA, _ := skewedCatalog(200, 5)
	exA := NewExecutor(catA)
	if _, err := execute(bg, exA, q); err != nil {
		t.Fatal(err)
	}
	coldTuples := exA.Stats().TuplesTransferred
	resA, err := execute(bg, exA, q)
	if err != nil {
		t.Fatal(err)
	}
	warmTuples := exA.Stats().TuplesTransferred - coldTuples

	if !sameTuples(resA, resG) {
		t.Fatalf("adaptive and greedy answers differ:\n%s\nvs\n%s", resA, resG)
	}
	if warmTuples*5 > greedyTuples {
		t.Errorf("warm adaptive plan moved %d tuples vs greedy %d; want >= 5x reduction", warmTuples, greedyTuples)
	}
	if warmTuples >= coldTuples {
		t.Errorf("replanning did not improve transfer: cold %d, warm %d", coldTuples, warmTuples)
	}

	// The learned plan starts from the small relation.
	plan, err := exA.PlanCtx(bg, q.(*sqlparse.Select))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Steps[0].Relation != "b" {
		t.Errorf("warm plan starts at %s, want b:\n%s", plan.Steps[0].Relation, plan.Explain())
	}
}

// TestColdDPNoWorseThanGreedy: without statistics the DP enumerator must
// never transfer more than the greedy order it replaced.
func TestColdDPNoWorseThanGreedy(t *testing.T) {
	q := sqlparse.MustParse(skewedQ)
	catD, _ := skewedCatalog(50, 3)
	exD := NewExecutor(catD)
	exD.AdaptiveStats = nil
	if _, err := execute(bg, exD, q); err != nil {
		t.Fatal(err)
	}
	catG, _ := skewedCatalog(50, 3)
	exG := NewExecutor(catG)
	exG.AdaptiveStats = nil
	exG.DisableReorder = true
	if _, err := execute(bg, exG, q); err != nil {
		t.Fatal(err)
	}
	if d, g := exD.Stats().TuplesTransferred, exG.Stats().TuplesTransferred; d > g {
		t.Errorf("cold DP moved %d tuples, greedy %d; DP must not be worse", d, g)
	}
}

// TestPlanDeterminism: the same query yields byte-identical Explain
// output across repeated plans — sequentially and from concurrent
// goroutines (the latter guards map-iteration-order and data-race hazards
// in the enumerator under -race).
func TestPlanDeterminism(t *testing.T) {
	cat, _ := skewedCatalog(50, 3)
	ex := NewExecutor(cat)
	sel := sqlparse.MustParse(skewedQ).(*sqlparse.Select)
	plan, err := ex.PlanCtx(bg, sel)
	if err != nil {
		t.Fatal(err)
	}
	want := plan.Explain()
	for i := 0; i < 10; i++ {
		p, err := ex.PlanCtx(bg, sel)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Explain(); got != want {
			t.Fatalf("run %d: plan differs:\n%s\nvs\n%s", i, got, want)
		}
	}
	var wg sync.WaitGroup
	errs := make([]string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p, err := ex.PlanCtx(bg, sel)
			if err != nil {
				errs[g] = err.Error()
				return
			}
			if got := p.Explain(); got != want {
				errs[g] = "plan differs:\n" + got
			}
		}(g)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Fatal(e)
		}
	}
}

// TestReorderEquivalenceRandomized: over randomized workloads — NULL join
// keys included, one required-binding source — the DP-ordered plan and
// the DisableReorder greedy plan return identical tuple multisets, and
// identical ordered results under ORDER BY.
func TestReorderEquivalenceRandomized(t *testing.T) {
	queries := []string{
		"SELECT x.v, y.w, z.p FROM x, y, z WHERE z.k = x.k AND z.k = y.k",
		"SELECT x.v, y.w, z.p FROM x, y, z WHERE z.k = x.k AND z.k = y.k AND y.w > 3",
		"SELECT x.v, y.w, z.p FROM x, y, z WHERE z.k = x.k AND z.k = y.k ORDER BY x.v, y.w, z.p",
	}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		build := func() *Catalog {
			mkVal := func(i int) relalg.Value {
				if rng.Intn(6) == 0 {
					return relalg.Null
				}
				return relalg.NumV(float64(i % 7))
			}
			mkKey := func() relalg.Value {
				if rng.Intn(8) == 0 {
					return relalg.Null
				}
				return relalg.StrV(fmt.Sprintf("k%d", rng.Intn(6)))
			}
			xdb := store.NewDB("sx")
			xt := xdb.MustCreateTable("x", relalg.NewSchema(
				relalg.Column{Name: "k", Type: relalg.KindString},
				relalg.Column{Name: "v", Type: relalg.KindNumber}))
			ydb := store.NewDB("sy")
			yt := ydb.MustCreateTable("y", relalg.NewSchema(
				relalg.Column{Name: "k", Type: relalg.KindString},
				relalg.Column{Name: "w", Type: relalg.KindNumber}))
			zdb := store.NewDB("sz")
			zt := zdb.MustCreateTable("z", relalg.NewSchema(
				relalg.Column{Name: "k", Type: relalg.KindString},
				relalg.Column{Name: "p", Type: relalg.KindNumber}))
			for i := 0; i < 10+rng.Intn(20); i++ {
				xt.MustInsert(mkKey(), mkVal(i))
			}
			for i := 0; i < 5+rng.Intn(10); i++ {
				yt.MustInsert(mkKey(), mkVal(i))
			}
			for i := 0; i < 30; i++ {
				zt.MustInsert(relalg.StrV(fmt.Sprintf("k%d", i%6)), relalg.NumV(float64(i)))
			}
			zw := wrapper.NewRelational(zdb)
			zw.Require = map[string][]string{"z": {"k"}}
			cat := NewCatalog()
			cat.MustAddSource(wrapper.NewRelational(xdb))
			cat.MustAddSource(wrapper.NewRelational(ydb))
			cat.MustAddSource(zw)
			return cat
		}
		// Both executors see identical data: the generator is re-seeded
		// per build, so draw the random rows once and reuse the catalog
		// (sources are read-only under query).
		cat := build()
		for qi, q := range queries {
			stmt := sqlparse.MustParse(q)
			exD := NewExecutor(cat)
			resD, err := execute(bg, exD, stmt)
			if err != nil {
				t.Fatalf("seed %d q%d dp: %v", seed, qi, err)
			}
			exG := NewExecutor(cat)
			exG.DisableReorder = true
			resG, err := execute(bg, exG, stmt)
			if err != nil {
				t.Fatalf("seed %d q%d greedy: %v", seed, qi, err)
			}
			if !sameTuples(resD, resG) {
				t.Fatalf("seed %d q%d: DP and greedy disagree:\n%s\nvs\n%s", seed, qi, resD, resG)
			}
			if strings.Contains(q, "ORDER BY") && resD.String() != resG.String() {
				t.Fatalf("seed %d q%d: ordered results differ:\n%s\nvs\n%s", seed, qi, resD, resG)
			}
		}
	}
}

// TestExplainAnalyzeActuals: an analyzed execution fills per-step actual
// rows/queries and the rendered plan shows estimated-vs-actual columns.
func TestExplainAnalyzeActuals(t *testing.T) {
	cat, _ := skewedCatalog(20, 2)
	ex := NewExecutor(cat)
	sess := ex.NewSession(context.Background(), Limits{})
	defer sess.Close()
	plan, err := ex.AnalyzeSelect(sess, sqlparse.MustParse(skewedQ).(*sqlparse.Select))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Actuals == nil || len(plan.Actuals.Steps) != len(plan.Steps) {
		t.Fatal("analyze did not attach per-step actuals")
	}
	var rows, queries int64
	for i := range plan.Actuals.Steps {
		rows += plan.Actuals.Steps[i].Rows.Load()
		queries += plan.Actuals.Steps[i].Queries.Load()
	}
	if rows == 0 || queries == 0 {
		t.Fatalf("actuals not counted: rows=%d queries=%d", rows, queries)
	}
	exp := plan.Explain()
	for _, want := range []string{"est_rows=", "act_rows=", "act_queries=", "act_cost=", "act_branch_rows="} {
		if !strings.Contains(exp, want) {
			t.Errorf("explain lacks %q:\n%s", want, exp)
		}
	}
	// The measured transfer must agree with ExecStats.
	if int(rows) != ex.Stats().TuplesTransferred {
		t.Errorf("actuals count %d tuples, ExecStats %d", rows, ex.Stats().TuplesTransferred)
	}
}

// TestStatsStoreLearning: exact signatures override, shapes average
// across probe values, IN lists normalize to per-value equality, and the
// store stays bounded.
func TestStatsStoreLearning(t *testing.T) {
	s := NewStatsStore()
	eq := func(v string) []wrapper.Filter {
		return []wrapper.Filter{{Column: "k", Op: "=", Value: relalg.StrV(v)}}
	}
	s.ObserveAccess("r", eq("a"), 10)
	s.ObserveAccess("r", eq("b"), 20)
	if rows, ok := s.AccessRows("r", eq("a"), nil); !ok || rows != 10 {
		t.Errorf("exact lookup = %v,%v want 10", rows, ok)
	}
	if rows, ok := s.AccessRows("r", nil, []string{"k"}); !ok || rows != 15 {
		t.Errorf("shape mean = %v,%v want 15", rows, ok)
	}
	// Exact entries keep the latest measurement.
	s.ObserveAccess("r", eq("a"), 30)
	if rows, _ := s.AccessRows("r", eq("a"), nil); rows != 30 {
		t.Errorf("exact re-observation = %v, want 30", rows)
	}
	// An IN query over 4 values counts as 4 probes of the equality shape.
	in := []wrapper.Filter{{Column: "k", Op: wrapper.OpIn, Values: []relalg.Value{
		relalg.StrV("c"), relalg.StrV("d"), relalg.StrV("e"), relalg.StrV("f")}}}
	s2 := NewStatsStore()
	s2.ObserveAccess("r", in, 40)
	if rows, ok := s2.AccessRows("r", nil, []string{"k"}); !ok || rows != 10 {
		t.Errorf("IN shape mean = %v,%v want 10", rows, ok)
	}
	// Bounded: the store evicts FIFO past its cap.
	s3 := NewStatsStore()
	s3.max = 8
	for i := 0; i < 100; i++ {
		s3.ObserveAccess("r", eq(fmt.Sprintf("v%d", i)), i)
	}
	if n := s3.Len(); n > 8 {
		t.Errorf("store grew to %d entries, cap 8", n)
	}
}

// TestStatsFlushAtSessionClose: observations buffer in the session and
// reach the executor's store only when the session closes.
func TestStatsFlushAtSessionClose(t *testing.T) {
	cat, _ := skewedCatalog(10, 1)
	ex := NewExecutor(cat)
	sess := ex.NewSession(context.Background(), Limits{})
	plan, err := ex.PlanCtx(bg, sqlparse.MustParse("SELECT a.v FROM a").(*sqlparse.Select))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runSession(ex, sess, plan); err != nil {
		t.Fatal(err)
	}
	if _, ok := ex.AdaptiveStats.RelationRows("a"); ok {
		t.Fatal("observation reached the store before session close")
	}
	sess.Close()
	rows, ok := ex.AdaptiveStats.RelationRows("a")
	if !ok || rows != 10 {
		t.Fatalf("after close: RelationRows(a) = %v,%v want 10", rows, ok)
	}
	if _, ok := ex.AdaptiveStats.SourceLatency("srcA"); !ok {
		t.Error("no latency observed for srcA")
	}
}

// TestLimitDoesNotPoisonStats: a scan cut short by LIMIT never records
// its partial count as the relation's cardinality.
func TestLimitDoesNotPoisonStats(t *testing.T) {
	cat, _ := skewedCatalog(10, 1)
	ex := NewExecutor(cat)
	if _, err := execute(bg, ex, sqlparse.MustParse("SELECT a.v FROM a LIMIT 2")); err != nil {
		t.Fatal(err)
	}
	if rows, ok := ex.AdaptiveStats.RelationRows("a"); ok {
		t.Fatalf("truncated scan recorded cardinality %v", rows)
	}
}

// TestTooManyRelationsRejected: placement masks are uint64, so a FROM
// clause beyond 64 relations must fail loudly rather than overflow into
// a silently wrong plan.
func TestTooManyRelationsRejected(t *testing.T) {
	cat, _ := skewedCatalog(1, 1)
	froms := make([]string, 65)
	for i := range froms {
		froms[i] = fmt.Sprintf("a a%d", i)
	}
	q := "SELECT a0.v FROM " + strings.Join(froms, ", ")
	_, err := NewExecutor(cat).PlanCtx(bg, sqlparse.MustParse(q).(*sqlparse.Select))
	if err == nil || !strings.Contains(err.Error(), "at most 64") {
		t.Errorf("err = %v, want the 64-relation refusal", err)
	}
}
