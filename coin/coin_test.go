package coin_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/coin"
)

func TestFigure2SystemQuery(t *testing.T) {
	sys := coin.Figure2System()
	rows, err := sys.Query(coin.PaperQ1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || rows.Tuples[0][0].S != "NTT" || rows.Tuples[0][1].N != 9600000 {
		t.Errorf("answer = %s", rows)
	}
	naive, err := collect(context.Background(), sys, coin.PaperQ1, "", true, coin.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if naive.Len() != 0 {
		t.Errorf("naive answer = %s", naive)
	}
}

func TestFigure2SystemMediate(t *testing.T) {
	sys := coin.Figure2System()
	med, err := sys.Mediate(coin.PaperQ1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	if len(med.Branches) != 3 {
		t.Errorf("branches = %d", len(med.Branches))
	}
	if !strings.Contains(med.SQL(), "UNION") {
		t.Errorf("mediated SQL:\n%s", med.SQL())
	}
	res, _, err := sys.ExecuteWarnCtx(context.Background(), med, coin.QueryOptions{})
	if err != nil || res.Len() != 1 {
		t.Errorf("execute mediation: %v %v", res, err)
	}
}

func TestSystemIntrospection(t *testing.T) {
	sys := coin.Figure2System()
	if got := sys.Relations(); len(got) != 3 {
		t.Errorf("relations = %v", got)
	}
	if got := sys.Contexts(); len(got) != 2 {
		t.Errorf("contexts = %v", got)
	}
	schema, err := sys.Schema("r3")
	if err != nil || len(schema.Columns) != 3 {
		t.Errorf("schema = %v, %v", schema, err)
	}
	if _, err := sys.Schema("zzz"); err == nil {
		t.Error("unknown relation accepted")
	}
}

// TestExtensibilityAddSource is experiment E6: integrating a new source
// into a running system takes only elevation axioms (plus a context if the
// source speaks a new one); existing queries are untouched and new
// cross-source queries immediately mediate correctly.
func TestExtensibilityAddSource(t *testing.T) {
	sys := coin.Figure2System()
	before, err := sys.Mediate(coin.PaperQ1, "c2")
	if err != nil {
		t.Fatal(err)
	}

	// A third source arrives: European financials in thousands of EUR.
	c3 := coin.NewContext("c3")
	if err := c3.DeclareConst("companyFinancials", "scaleFactor", 1000); err != nil {
		t.Fatal(err)
	}
	if err := c3.DeclareConst("companyFinancials", "currency", "EUR"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddContext(c3); err != nil {
		t.Fatal(err)
	}
	db := coin.NewDB("source3")
	tab := db.MustCreateTable("r4", coin.NewSchema(
		coin.Column{Name: "cname", Type: coin.KindString},
		coin.Column{Name: "profit", Type: coin.KindNumber},
	))
	tab.MustInsert(coin.StrV("NTT"), coin.NumV(2000)) // 2,000,000 EUR
	if err := sys.AddRelationalSource(db, map[string]*coin.Elevation{
		"r4": {
			Relation: "r4",
			Context:  "c3",
			Columns: []coin.ElevatedColumn{
				{Column: "cname", SemType: "companyName"},
				{Column: "profit", SemType: "companyFinancials"},
			},
		},
	}); err != nil {
		t.Fatal(err)
	}

	// The old query is byte-identical after the extension.
	after, err := sys.Mediate(coin.PaperQ1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	if before.Mediated.String() != after.Mediated.String() {
		t.Error("adding a source changed an unrelated mediated query")
	}

	// A new cross-context query mediates and executes immediately:
	// profit is scaled by 1000 and converted EUR→USD (rate 1.10).
	rows, err := sys.Query("SELECT r4.cname, r4.profit FROM r4", "c2")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || rows.Tuples[0][1].N != 2000*1000*1.10 {
		t.Errorf("converted profit = %s", rows)
	}
}

// TestAccessibilityQueryKinds is experiment E7: the same context knowledge
// serves projections, selections, joins, comparisons, aggregation and
// ordering.
func TestAccessibilityQueryKinds(t *testing.T) {
	sys := coin.Figure2System()
	queries := map[string]func(*coin.Relation) bool{
		// Projection with conversion.
		"SELECT r1.cname, r1.revenue FROM r1": func(r *coin.Relation) bool {
			if r.Len() != 2 {
				return false
			}
			byName := map[string]float64{}
			for _, t := range r.Tuples {
				byName[t[0].S] = t[1].N
			}
			return byName["IBM"] == 1e8 && byName["NTT"] == 9.6e6
		},
		// Selection over converted values: who clears 5M USD revenue?
		"SELECT r1.cname FROM r1 WHERE r1.revenue > 5000000": func(r *coin.Relation) bool {
			return r.Len() == 2 // both, after conversion
		},
		// Selection that would differ without conversion.
		"SELECT r1.cname FROM r1 WHERE r1.revenue < 10000000": func(r *coin.Relation) bool {
			return r.Len() == 1 && r.Tuples[0][0].S == "NTT"
		},
		// Join + comparison (the paper's query).
		coin.PaperQ1: func(r *coin.Relation) bool {
			return r.Len() == 1 && r.Tuples[0][0].S == "NTT"
		},
		// Aggregation over converted values.
		"SELECT SUM(r1.revenue) AS total FROM r1": func(r *coin.Relation) bool {
			return r.Len() == 1 && r.Tuples[0][0].N == 1e8+9.6e6
		},
		// Ordering by converted values.
		"SELECT r1.cname, r1.revenue FROM r1 ORDER BY r1.revenue DESC": func(r *coin.Relation) bool {
			return r.Len() == 2 && r.Tuples[0][0].S == "IBM"
		},
	}
	for sql, check := range queries {
		rows, err := sys.Query(sql, "c2")
		if err != nil {
			t.Errorf("%s: %v", sql, err)
			continue
		}
		if !check(rows) {
			t.Errorf("%s: unexpected answer\n%s", sql, rows)
		}
	}
}

func TestBuiltinSpecs(t *testing.T) {
	for _, name := range []string{coin.CurrencySpecCrawl, coin.CurrencySpecLookup, coin.StockSpec, coin.ProfileSpec} {
		if _, ok := coin.BuiltinSpec(name); !ok {
			t.Errorf("BuiltinSpec(%s) missing", name)
		}
	}
	if _, ok := coin.BuiltinSpec("zzz"); ok {
		t.Error("unknown spec found")
	}
}

// TestExplainAnalyze: the analyzed plan renders estimated-vs-actual
// columns for every branch, and the analyzed run's observations teach the
// optimizer (a following EXPLAIN prices from measured cardinalities).
func TestExplainAnalyze(t *testing.T) {
	sys := coin.Figure2System()
	out, err := sys.Plan(context.Background(), coin.PaperQ1, "c2", true, coin.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mediated into 3 branch(es)", "est_rows=", "act_rows=", "act_queries=", "act_branch_rows="} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze output missing %q:\n%s", want, out)
		}
	}
	// The ordinary answer still computes after an analyzed run.
	rows, err := sys.Query(coin.PaperQ1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || rows.Tuples[0][0].S != "NTT" {
		t.Errorf("post-analyze answer = %s", rows)
	}
	if _, err := sys.Plan(context.Background(), "SELECT nope FROM nosuch", "c2", true, coin.QueryOptions{}); err == nil {
		t.Error("bad query analyzed successfully")
	}
}

// TestNegatedRangeOverNaNAndNull pins where the two roads part on a
// negated range comparison. The mediator pushes NOT down to the opposite
// operator, so NOT (x < 5) is mediated as x >= 5, which is false on NULL
// and on NaN and drops both rows. The naive road runs NOT over the
// two-valued comparison, whose false turns true, and keeps them. Both
// roads agree on every other row.
func TestNegatedRangeOverNaNAndNull(t *testing.T) {
	sys := coin.New(coin.NewModel())
	if err := sys.AddContext(coin.NewContext("rc")); err != nil {
		t.Fatal(err)
	}
	db := coin.NewDB("nansrc")
	tab := db.MustCreateTable("r", coin.NewSchema(coin.Column{Name: "x", Type: coin.KindNumber}))
	for _, v := range []coin.Value{coin.NumV(1), coin.NumV(7), coin.NumV(math.NaN()), {} /* NULL */} {
		tab.MustInsert(v)
	}
	if err := sys.AddRelationalSource(db, nil); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT r.x FROM r WHERE NOT (r.x < 5)"
	for _, tc := range []struct {
		naive bool
		want  string
	}{
		{naive: true, want: "[[7] [NaN] [NULL]]"},
		{naive: false, want: "[[7]]"},
	} {
		rel, err := collect(context.Background(), sys, sql, "rc", tc.naive, coin.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(rel.Tuples); got != tc.want {
			t.Errorf("naive=%v: %s = %s, want %s", tc.naive, sql, got, tc.want)
		}
	}
}
