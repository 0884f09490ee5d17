package planner

// Capability edge cases through the full plan/execute path: a source
// that advertises IN-lists but a batch width of one (the planner must
// fall back to per-value probes and never send OpIn), a required binding
// that only a bind join can satisfy, and streams that end on an empty
// chunk — including a stream with no rows at all.

import (
	"strings"
	"testing"

	"repro/internal/relalg"
	"repro/internal/sqlparse"
	"repro/internal/store"
	"repro/internal/wrapper"
	"repro/internal/wrapper/wrappertest"
)

// capsOverride rewrites selected relations' advertised capabilities while
// delegating everything else to the inner wrapper.
type capsOverride struct {
	wrapper.Wrapper
	caps map[string]wrapper.Capabilities
}

func (c *capsOverride) Capabilities(rel string) (wrapper.Capabilities, error) {
	if v, ok := c.caps[rel]; ok {
		return v, nil
	}
	return c.Wrapper.Capabilities(rel)
}

// bindCatalog builds a feeder f (four rows over three distinct keys) and
// a binding-required target t on its own source, optionally with target
// capabilities rewritten.
func bindCatalog(t *testing.T, rewrite func(wrapper.Capabilities) wrapper.Capabilities) (*Catalog, *wrappertest.Counter) {
	t.Helper()
	fdb := store.NewDB("feed")
	f := fdb.MustCreateTable("f", relalg.NewSchema(
		relalg.Column{Name: "k", Type: relalg.KindString},
		relalg.Column{Name: "v", Type: relalg.KindNumber}))
	for i, k := range []string{"a", "b", "c", "a"} {
		f.MustInsert(relalg.StrV(k), relalg.NumV(float64(i)))
	}
	tdb := store.NewDB("tgt")
	tt := tdb.MustCreateTable("t", relalg.NewSchema(
		relalg.Column{Name: "k", Type: relalg.KindString},
		relalg.Column{Name: "w", Type: relalg.KindNumber}))
	for i, k := range []string{"a", "b", "c"} {
		tt.MustInsert(relalg.StrV(k), relalg.NumV(float64(100+i)))
	}
	tr := wrapper.NewRelational(tdb)
	tr.Require = map[string][]string{"t": {"k"}}

	var tw wrapper.Wrapper = tr
	if rewrite != nil {
		caps, err := tr.Capabilities("t")
		if err != nil {
			t.Fatal(err)
		}
		tw = &capsOverride{Wrapper: tr, caps: map[string]wrapper.Capabilities{"t": rewrite(caps)}}
	}
	counter := wrappertest.NewCounter(tw)
	cat := NewCatalog()
	cat.MustAddSource(wrapper.NewRelational(fdb))
	cat.MustAddSource(counter)
	return cat, counter
}

const capsBindQ = "SELECT f.v, t.w FROM f, t WHERE t.k = f.k"

// TestInListWithUnitBatchFallsBackToProbes: InList advertised together
// with BatchSize=1 must not batch — the planner probes once per distinct
// feeder value with plain equality filters, and the plan shows no
// batch[k] marker.
func TestInListWithUnitBatchFallsBackToProbes(t *testing.T) {
	cat, counter := bindCatalog(t, func(caps wrapper.Capabilities) wrapper.Capabilities {
		caps.InList = true
		caps.BatchSize = 1
		return caps
	})
	ex := NewExecutor(cat)
	sel := sqlparse.MustParse(capsBindQ).(*sqlparse.Select)
	plan, err := ex.PlanCtx(bg, sel)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan.Explain(), "batch[") {
		t.Fatalf("unit batch width must not plan batching:\n%s", plan.Explain())
	}
	res, err := runPlan(ex, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 {
		t.Fatalf("join returned %d rows, want 4: %v", res.Len(), res.Tuples)
	}
	probes := 0
	for _, q := range counter.Log() {
		if q.Relation != "t" {
			continue
		}
		probes++
		for _, fl := range q.Filters {
			if fl.Op == wrapper.OpIn {
				t.Fatalf("source with BatchSize=1 received an IN-list: %+v", q)
			}
			if fl.Op != "=" {
				t.Fatalf("bind probe used op %q, want =", fl.Op)
			}
		}
	}
	if probes != 3 {
		t.Fatalf("made %d probes, want one per distinct feeder value (3)", probes)
	}
}

// TestRequiredBindingSatisfiedOnlyByBindJoin: no literal constrains t.k,
// so only the join edge can bind it — the planner must place the feeder
// first and bind-join t rather than reject the query.
func TestRequiredBindingSatisfiedOnlyByBindJoin(t *testing.T) {
	cat, counter := bindCatalog(t, nil)
	ex := NewExecutor(cat)
	sel := sqlparse.MustParse(capsBindQ).(*sqlparse.Select)
	plan, err := ex.PlanCtx(bg, sel)
	if err != nil {
		t.Fatal(err)
	}
	var tStep *PlanStep
	for i := range plan.Steps {
		if plan.Steps[i].Relation == "t" {
			tStep = &plan.Steps[i]
		}
	}
	if tStep == nil || len(tStep.BindJoins) != 1 {
		t.Fatalf("t must be reached via bind join:\n%s", plan.Explain())
	}
	if plan.Steps[0].Relation != "f" {
		t.Fatalf("feeder must be placed first:\n%s", plan.Explain())
	}
	res, err := runPlan(ex, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 {
		t.Fatalf("join returned %d rows, want 4: %v", res.Len(), res.Tuples)
	}
	if counter.Queries() == 0 {
		t.Fatal("bind join never reached the source")
	}
}

// chunkedCatalog serves one four-row relation through a stream that
// always ends with an empty chunk.
func chunkedCatalog(size int) (*Catalog, *wrappertest.Chunked) {
	db := store.NewDB("cdb")
	r := db.MustCreateTable("r", relalg.NewSchema(
		relalg.Column{Name: "k", Type: relalg.KindString},
		relalg.Column{Name: "v", Type: relalg.KindNumber}))
	for i, k := range []string{"a", "b", "c", "d"} {
		r.MustInsert(relalg.StrV(k), relalg.NumV(float64(i)))
	}
	ch := wrappertest.NewChunked(wrapper.NewRelational(db), size)
	cat := NewCatalog()
	cat.MustAddSource(ch)
	return cat, ch
}

// TestStreamWithEmptyFinalChunk: four rows at chunk width two means two
// full fetches plus the empty tail fetch; the executor must deliver all
// four rows exactly once and treat the empty chunk as clean EOF.
func TestStreamWithEmptyFinalChunk(t *testing.T) {
	cat, ch := chunkedCatalog(2)
	ex := NewExecutor(cat)
	res, err := execute(bg, ex, sqlparse.MustParse("SELECT r.k, r.v FROM r"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 {
		t.Fatalf("streamed %d rows, want 4: %v", res.Len(), res.Tuples)
	}
	seen := map[string]bool{}
	for _, tup := range res.Tuples {
		if seen[tup[0].S] {
			t.Fatalf("duplicate row %v across chunk boundary", tup)
		}
		seen[tup[0].S] = true
	}
	if got := ch.Chunks(); got != 3 {
		t.Fatalf("stream made %d chunk fetches, want 2 full + 1 empty", got)
	}
}

// TestStreamWithNoRows: a pushed filter that matches nothing yields a
// stream whose only chunk is the empty one.
func TestStreamWithNoRows(t *testing.T) {
	cat, ch := chunkedCatalog(2)
	ex := NewExecutor(cat)
	res, err := execute(bg, ex, sqlparse.MustParse("SELECT r.k FROM r WHERE r.k = 'zzz'"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("empty stream produced rows: %v", res.Tuples)
	}
	if got := ch.Chunks(); got != 1 {
		t.Fatalf("empty stream made %d chunk fetches, want exactly the empty one", got)
	}
}
