package planner

// Every scan is one source stream on one admission slot, and
// DefaultParallelism and ParallelizePlan — kept only because bench/
// still writes and calls them — change nothing: not the plan, not its
// EXPLAIN, not the queries a scan issues, not the answer. The sweep at
// the end holds the executor's remaining roads (hash or nested-loop
// join, reordered or greedy access order, pushed or local filters) to
// one answer over NULL join keys and skewed keys.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/relalg"
	"repro/internal/sqlparse"
	"repro/internal/store"
	"repro/internal/wrapper"
	"repro/internal/wrapper/wrappertest"
)

// runSQL executes sql on ex under zero limits and returns the answer.
func runSQL(t *testing.T, ex *Executor, sql string) *relalg.Relation {
	t.Helper()
	sess := ex.NewSession(context.Background(), Limits{})
	defer sess.Close()
	res, err := ex.ExecuteSession(sess, sqlparse.MustParse(sql))
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

// bigTable loads rows of big(k, v) from seed into a fresh source DB.
func bigTable(rows int, seed int64) *store.DB {
	db := store.NewDB("bigsrc")
	tab := db.MustCreateTable("big", relalg.NewSchema(
		relalg.Column{Name: "k", Type: relalg.KindString},
		relalg.Column{Name: "v", Type: relalg.KindNumber}))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < rows; i++ {
		tab.MustInsert(relalg.StrV(fmt.Sprintf("k%03d", rng.Intn(200))), relalg.NumV(float64(i)))
	}
	return db
}

// TestParallelizePassAnnotations: ParallelizePlan annotates nothing. At
// DefaultParallelism 4 it leaves the plan's EXPLAIN as planned, and the
// analyzed run renders no part[n], merge[n] or worker rows: each scan
// step issued exactly one source query.
func TestParallelizePassAnnotations(t *testing.T) {
	cat, _, _ := buildParCatalog(t, parCatalogOpts{bigRows: 4000, dimRows: 900, seed: 1})
	ex := NewExecutor(cat)
	ex.DefaultParallelism = 4
	sel := sqlparse.MustParse(parJoinQ).(*sqlparse.Select)
	plan, err := ex.PlanCtx(bg, sel)
	if err != nil {
		t.Fatal(err)
	}
	planned := plan.Explain()
	sess := zeroSession(t, ex)
	ex.ParallelizePlan(plan, sess)
	if got := plan.Explain(); got != planned {
		t.Errorf("ParallelizePlan changed the plan:\n%s\nvs\n%s", got, planned)
	}

	analyzed, err := ex.AnalyzeSelect(sess, sel)
	if err != nil {
		t.Fatal(err)
	}
	text := analyzed.Explain()
	for _, mark := range []string{"part[", "merge[", "worker "} {
		if strings.Contains(text, mark) {
			t.Errorf("EXPLAIN ANALYZE renders %q:\n%s", mark, text)
		}
	}
	for i, step := range analyzed.Steps {
		if q := analyzed.Actuals.Steps[i].Queries.Load(); q != 1 {
			t.Errorf("step %d (%s) issued %d source queries, want one stream:\n%s", i+1, step.Relation, q, text)
		}
	}
}

// TestParallelismOnePlansByteIdentical: an executor told DefaultParallelism
// 8, its plan run through ParallelizePlan, renders byte for byte the plan
// of an executor that never set either.
func TestParallelismOnePlansByteIdentical(t *testing.T) {
	cat, _, _ := buildParCatalog(t, parCatalogOpts{bigRows: 4000, dimRows: 900, seed: 2})
	sel := sqlparse.MustParse(parJoinQ).(*sqlparse.Select)

	base, err := NewExecutor(cat).PlanCtx(bg, sel)
	if err != nil {
		t.Fatal(err)
	}
	par := NewExecutor(cat)
	par.DefaultParallelism = 8
	plan, err := par.PlanCtx(bg, sel)
	if err != nil {
		t.Fatal(err)
	}
	par.ParallelizePlan(plan, zeroSession(t, par))
	if plan.Explain() != base.Explain() {
		t.Errorf("DefaultParallelism=8 plan differs from the plain executor's:\n%s\nvs\n%s",
			plan.Explain(), base.Explain())
	}
}

// TestParallelScanAdmissionInvariant pins the admission invariant at the
// source: a scan takes one slot and issues one query, so big's source
// sees an in-flight peak of 1 whatever DefaultParallelism says, and
// a session cap of one slot per source leaves the answer unchanged.
func TestParallelScanAdmissionInvariant(t *testing.T) {
	cat, bigCtr, _ := buildParCatalog(t, parCatalogOpts{bigRows: 4000, dimRows: 900, seed: 3})
	ex := NewExecutor(cat)
	want := runSQL(t, ex, parJoinQ).String()

	ex.DefaultParallelism = 8
	bigCtr.Reset()
	if got := runSQL(t, ex, parJoinQ).String(); got != want {
		t.Fatalf("answer at DefaultParallelism=8 differs from the plain run")
	}
	if got := bigCtr.MaxInflight(); got != 1 {
		t.Errorf("big scan max in-flight = %d, want 1 slot", got)
	}
	if got := bigCtr.Queries(); got != 1 {
		t.Errorf("big scan issued %d queries, want 1", got)
	}

	bigCtr.Reset()
	sess := ex.NewSession(context.Background(), Limits{MaxConcurrentPerSource: 1})
	res, err := ex.ExecuteSession(sess, sqlparse.MustParse(parJoinQ))
	sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != want {
		t.Errorf("answer under MaxConcurrentPerSource=1 differs from the plain run")
	}
	if got := bigCtr.MaxInflight(); got != 1 {
		t.Errorf("big scan max in-flight = %d under MaxConcurrentPerSource=1", got)
	}
}

// TestParallelScanFanOutConcurrency freezes a 4,000-row scan at its first
// tuple behind a Gate, with DefaultParallelism 4: the frozen scan holds
// one slot with one stream, and once released it issues no further query
// and delivers the ungated answer in the same order.
func TestParallelScanFanOutConcurrency(t *testing.T) {
	const q = "SELECT big.k, big.v FROM big"
	db := bigTable(4000, 4)
	plainCat := NewCatalog()
	plainCat.MustAddSource(wrapper.NewRelational(db))
	want := runSQL(t, NewExecutor(plainCat), q).String()

	gate := wrappertest.NewGate(wrapper.NewRelational(db))
	ctr := wrappertest.NewCounter(gate)
	gcat := NewCatalog()
	gcat.MustAddSource(ctr)
	gex := NewExecutor(gcat)
	gex.DefaultParallelism = 4

	type answer struct {
		s   string
		err error
	}
	done := make(chan answer, 1)
	go func() {
		sess := gex.NewSession(context.Background(), Limits{})
		defer sess.Close()
		res, err := gex.ExecuteSession(sess, sqlparse.MustParse(q))
		if err != nil {
			done <- answer{err: err}
			return
		}
		done <- answer{s: res.String()}
	}()
	select {
	case <-gate.Emitted: // the stream is frozen before its first tuple
	case <-time.After(10 * time.Second):
		t.Fatal("the scan never reached the gate")
	}
	if got := ctr.MaxInflight(); got != 1 {
		t.Errorf("frozen scan has %d streams in flight, want 1", got)
	}
	gate.Open()
	got := <-done
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.s != want {
		t.Errorf("gated scan answer differs from the ungated one")
	}
	if n := ctr.Queries(); n != 1 {
		t.Errorf("scan issued %d queries, want 1", n)
	}
	if n := ctr.MaxInflight(); n != 1 {
		t.Errorf("scan max in-flight = %d, want 1", n)
	}
}

// TestParallelScanMidStreamFaultRecovers: a 4,000-row scan dies after
// delivering 2,500 tuples — several batches in — and the retry machinery
// re-opens it on the slot it already holds: the replayed prefix is
// suppressed, the answer is the fault-free one in the same order, and the
// source saw the first query plus one recovery, never two at once.
func TestParallelScanMidStreamFaultRecovers(t *testing.T) {
	const q = "SELECT big.k, big.v FROM big"
	const rows, at = 4000, 2500
	cleanCat := NewCatalog()
	cleanCat.MustAddSource(wrapper.NewRelational(bigTable(rows, 5)))
	clean := runSQL(t, NewExecutor(cleanCat), q).String()

	flaky := wrappertest.NewFlaky(wrapper.NewRelational(bigTable(rows, 5)))
	flaky.FailAtTuple(at, wrapper.Transient(errors.New("mid-stream fault")))
	ctr := wrappertest.NewCounter(flaky)
	fcat := NewCatalog()
	fcat.MustAddSource(ctr)
	fex := NewExecutor(fcat)
	fex.DefaultParallelism = 4
	fex.Retry = RetryPolicy{MaxAttempts: 3, BaseBackoff: 1}

	if got := runSQL(t, fex, q).String(); got != clean {
		t.Errorf("recovered scan answer differs from the fault-free run")
	}
	st := fex.Stats()
	if st.Retries != 1 {
		t.Errorf("Retries = %d, want 1", st.Retries)
	}
	if got := ctr.Queries(); got != 2 {
		t.Errorf("faulted scan issued %d queries, want 1 + 1 recovery = 2", got)
	}
	if got := ctr.MaxInflight(); got != 1 {
		t.Errorf("recovery took a second slot: max in-flight %d", got)
	}
	if st.TuplesTransferred != rows+at {
		t.Errorf("TuplesTransferred = %d, want %d (the replayed prefix still counts)", st.TuplesTransferred, rows+at)
	}
}

// TestParallelEquivalenceRandomized is the equivalence sweep: across
// seeds — NULL join keys and one heavily skewed key included — every
// road the executor can take returns the plain executor's answer: the
// same multiset, and for ORDER BY queries the same order.
func TestParallelEquivalenceRandomized(t *testing.T) {
	queries := []struct {
		sql     string
		ordered bool
	}{
		{parJoinQ, false},
		{"SELECT big.k, big.v, dim.w FROM dim, big WHERE big.k = dim.k ORDER BY big.v DESC, dim.w", true},
		{"SELECT big.k, COUNT(*), SUM(big.v) FROM big, dim WHERE big.k = dim.k GROUP BY big.k ORDER BY big.k", true},
		{"SELECT big.k FROM big WHERE big.v < 500 ORDER BY big.k", true},
	}
	roads := []struct {
		name string
		set  func(*Executor)
	}{
		{"DefaultParallelism=8", func(ex *Executor) { ex.DefaultParallelism = 8 }},
		{"ForceNestedLoop", func(ex *Executor) { ex.ForceNestedLoop = true }},
		{"DisableReorder", func(ex *Executor) { ex.DisableReorder = true }},
		{"DisablePushdown", func(ex *Executor) { ex.DisablePushdown = true }},
	}
	rowKeys := func(rel *relalg.Relation, ordered bool) []string {
		keys := make([]string, len(rel.Tuples))
		for i, row := range rel.Tuples {
			keys[i] = row.FullKey()
		}
		if !ordered {
			slices.Sort(keys)
		}
		return keys
	}
	for seed := int64(1); seed <= 6; seed++ {
		o := parCatalogOpts{bigRows: 3000, dimRows: 800, seed: seed,
			nullKeys: seed%2 == 0, skew: seed%3 == 0}
		cat, _, _ := buildParCatalog(t, o)
		for qi, q := range queries {
			want := rowKeys(runSQL(t, NewExecutor(cat), q.sql), q.ordered)
			if len(want) == 0 {
				t.Fatalf("seed %d query %d: empty answer", seed, qi)
			}
			for _, road := range roads {
				ex := NewExecutor(cat)
				road.set(ex)
				if got := rowKeys(runSQL(t, ex, q.sql), q.ordered); !slices.Equal(got, want) {
					t.Errorf("seed %d query %d %s: %d rows differ from the plain executor's %d",
						seed, qi, road.name, len(got), len(want))
				}
			}
		}
	}
}

// TestParallelGroupByAndSortMatchSerial covers the post-pipeline
// breakers: ORDER BY and GROUP BY over the one scan stream, at
// DefaultParallelism 0 and 8, match answers computed directly from the
// source's rows — NULL keys sorting first and forming their own group.
func TestParallelGroupByAndSortMatchSerial(t *testing.T) {
	cat, bigCtr, _ := buildParCatalog(t, parCatalogOpts{bigRows: 3000, dimRows: 800, seed: 7, nullKeys: true})
	src, err := bigCtr.Query(bg, wrapper.SourceQuery{Relation: "big"})
	if err != nil {
		t.Fatal(err)
	}
	ordered := slices.Clone(src.Tuples)
	slices.SortStableFunc(ordered, func(a, b relalg.Tuple) int {
		if an, bn := a[0].IsNull(), b[0].IsNull(); an != bn {
			if an {
				return -1
			}
			return 1
		}
		if c := cmp.Compare(a[0].S, b[0].S); c != 0 {
			return c
		}
		return cmp.Compare(b[1].N, a[1].N)
	})
	type agg struct{ n, lo, hi float64 }
	groups := map[string]*agg{}
	keyOf := map[string]relalg.Value{}
	for _, row := range src.Tuples {
		g, ok := groups[row[0].Key()]
		if !ok {
			g = &agg{lo: row[1].N, hi: row[1].N}
			groups[row[0].Key()], keyOf[row[0].Key()] = g, row[0]
		}
		g.n++
		g.lo, g.hi = min(g.lo, row[1].N), max(g.hi, row[1].N)
	}
	if _, ok := groups[relalg.Null.Key()]; !ok {
		t.Fatal("fixture holds no NULL key")
	}
	var grouped []string
	for k, g := range groups {
		grouped = append(grouped, relalg.Tuple{keyOf[k], relalg.NumV(g.n), relalg.NumV(g.lo), relalg.NumV(g.hi)}.FullKey())
	}
	slices.Sort(grouped)

	for _, par := range []int{0, 8} {
		ex := NewExecutor(cat)
		ex.DefaultParallelism = par
		got := runSQL(t, ex, "SELECT big.k, big.v FROM big ORDER BY big.k, big.v DESC")
		if len(got.Tuples) != len(ordered) {
			t.Fatalf("par %d ORDER BY: %d rows, want %d", par, len(got.Tuples), len(ordered))
		}
		for i := range ordered {
			if got.Tuples[i].FullKey() != ordered[i].FullKey() {
				t.Fatalf("par %d ORDER BY row %d = %v, want %v", par, i, got.Tuples[i], ordered[i])
			}
		}
		res := runSQL(t, ex, "SELECT big.k, COUNT(*), MIN(big.v), MAX(big.v) FROM big GROUP BY big.k")
		var keys []string
		for _, row := range res.Tuples {
			keys = append(keys, row.FullKey())
		}
		slices.Sort(keys)
		if !slices.Equal(keys, grouped) {
			t.Errorf("par %d GROUP BY: %d groups differ from the %d computed from the source", par, len(keys), len(grouped))
		}
	}
}
