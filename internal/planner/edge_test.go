package planner

import (
	"testing"

	"repro/internal/relalg"
	"repro/internal/sqlparse"
	"repro/internal/store"
	"repro/internal/wrapper"
)

// TestFlippedLiteralFilter: "5 < r1.revenue" pushes as revenue > 5.
func TestFlippedLiteralFilter(t *testing.T) {
	cat, _ := paperCatalog()
	ex := NewExecutor(cat)
	plan, err := ex.PlanCtx(bg, sqlparse.MustParse("SELECT r1.cname FROM r1 WHERE 2000000 < r1.revenue").(*sqlparse.Select))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps[0].Pushed) != 1 {
		t.Fatalf("pushed = %+v", plan.Steps[0].Pushed)
	}
	f := plan.Steps[0].Pushed[0]
	if f.Column != "revenue" || f.Op != ">" || f.Value.N != 2000000 {
		t.Errorf("flipped filter = %+v", f)
	}
	res, err := runPlan(ex, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Tuples[0][0].S != "IBM" {
		t.Errorf("result = %s", res)
	}
}

// TestSameBindingComplexPredicateStaysLocal: r1.revenue * 2 > 1000 is a
// single-binding predicate too complex for the filter protocol; it runs
// engine-side right after the fetch.
func TestSameBindingComplexPredicate(t *testing.T) {
	cat, _ := paperCatalog()
	ex := NewExecutor(cat)
	sel := sqlparse.MustParse("SELECT r1.cname FROM r1 WHERE r1.revenue * 2 > 1000000").(*sqlparse.Select)
	plan, err := ex.PlanCtx(bg, sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps[0].LocalPreds) != 1 {
		t.Fatalf("local preds = %+v", plan.Steps[0])
	}
	res, err := runPlan(ex, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Errorf("result = %s", res)
	}
}

// TestSameBindingEqualityIsLocal: r2.cname = r2.cname (same binding both
// sides) is not a join.
func TestSameBindingEqualityIsLocal(t *testing.T) {
	cat, _ := paperCatalog()
	ex := NewExecutor(cat)
	res, err := execute(bg, ex, sqlparse.MustParse("SELECT r2.cname FROM r2 WHERE r2.cname = r2.cname"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Errorf("result = %s", res)
	}
}

// TestCrossJoinNoPredicate: a FROM list without join predicates runs as a
// product.
func TestCrossJoinNoPredicate(t *testing.T) {
	cat, _ := paperCatalog()
	ex := NewExecutor(cat)
	res, err := execute(bg, ex, sqlparse.MustParse("SELECT r1.cname, r2.cname FROM r1, r2"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 {
		t.Errorf("cross join size = %d", res.Len())
	}
	// Duplicate output names are disambiguated.
	if res.Schema.Columns[0].Name == res.Schema.Columns[1].Name {
		t.Errorf("output columns collide: %v", res.Schema.Names())
	}
}

// TestThreeWayJoinOrder: the engine chains joins across three sources.
func TestThreeWayJoinOrder(t *testing.T) {
	cat, _ := paperCatalog()
	ex := NewExecutor(cat)
	res, err := execute(bg, ex, sqlparse.MustParse(`
		SELECT r1.cname, r3.rate FROM r1, r2, r3
		WHERE r1.cname = r2.cname AND r3.fromCur = r1.currency AND r3.toCur = 'USD'`))
	if err != nil {
		t.Fatal(err)
	}
	// Only NTT's JPY row has a JPY→USD rate.
	if res.Len() != 1 || res.Tuples[0][0].S != "NTT" || res.Tuples[0][1].N != 0.0096 {
		t.Errorf("result = %s", res)
	}
}

// TestProjectionExpressionOutput: computed projections with aliases.
func TestProjectionExpression(t *testing.T) {
	cat, _ := paperCatalog()
	ex := NewExecutor(cat)
	res, err := execute(bg, ex, sqlparse.MustParse(
		"SELECT r2.cname, r2.expenses / 1000000 AS m FROM r2 ORDER BY m DESC"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema.Columns[1].Name != "m" || res.Tuples[0][1].N != 150 {
		t.Errorf("result = %s", res)
	}
}

// TestBooleanColumnsSurvive: bool values flow through wrappers, joins and
// filters.
func TestBooleanColumns(t *testing.T) {
	db := storeWithBools()
	cat := NewCatalog()
	cat.MustAddSource(wrapper.NewRelational(db))
	ex := NewExecutor(cat)
	res, err := execute(bg, ex, sqlparse.MustParse("SELECT flags.name FROM flags WHERE flags.active = TRUE"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Tuples[0][0].S != "on" {
		t.Errorf("result = %s", res)
	}
}

func storeWithBools() *store.DB {
	db := store.NewDB("boolsrc")
	tab := db.MustCreateTable("flags", relalg.NewSchema(
		relalg.Column{Name: "name", Type: relalg.KindString},
		relalg.Column{Name: "active", Type: relalg.KindBool},
	))
	tab.MustInsert(relalg.StrV("on"), relalg.BoolV(true))
	tab.MustInsert(relalg.StrV("off"), relalg.BoolV(false))
	return db
}
