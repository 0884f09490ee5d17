package wrapper

import (
	"context"
	"strings"
	"testing"

	"repro/internal/relalg"
	"repro/internal/store"
	"repro/internal/web"
)

func sampleDB() *store.DB {
	db := store.NewDB("source1")
	t := db.MustCreateTable("r1", relalg.NewSchema(
		relalg.Column{Name: "cname", Type: relalg.KindString},
		relalg.Column{Name: "revenue", Type: relalg.KindNumber},
		relalg.Column{Name: "currency", Type: relalg.KindString},
	))
	t.MustInsert(relalg.StrV("IBM"), relalg.NumV(1e8), relalg.StrV("USD"))
	t.MustInsert(relalg.StrV("NTT"), relalg.NumV(1e6), relalg.StrV("JPY"))
	t.MustInsert(relalg.StrV("SAP"), relalg.NumV(5e6), relalg.StrV("EUR"))
	return db
}

func TestRelationalWrapperBasics(t *testing.T) {
	w := NewRelational(sampleDB())
	if w.Source() != "source1" {
		t.Errorf("source = %s", w.Source())
	}
	if got := w.Relations(); len(got) != 1 || got[0] != "r1" {
		t.Errorf("relations = %v", got)
	}
	caps, err := w.Capabilities("r1")
	if err != nil || !caps.Selection || !caps.Projection || len(caps.RequiredBindings) != 0 {
		t.Errorf("caps = %+v, %v", caps, err)
	}
	if w.EstimateRows(context.Background(), "r1") != 3 {
		t.Errorf("estimate = %d", w.EstimateRows(context.Background(), "r1"))
	}
	if _, err := w.Schema("zzz"); err == nil {
		t.Error("unknown relation accepted")
	}
}

func TestRelationalWrapperQuery(t *testing.T) {
	w := NewRelational(sampleDB())
	rel, err := w.Query(context.Background(), SourceQuery{
		Relation: "r1",
		Columns:  []string{"cname", "revenue"},
		Filters:  []Filter{{Column: "currency", Op: "=", Value: relalg.StrV("JPY")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Tuples[0][0].S != "NTT" {
		t.Errorf("result = %s", rel)
	}
	if len(rel.Schema.Columns) != 2 {
		t.Errorf("projection lost: %v", rel.Schema.Names())
	}
	// Range filter.
	rel, err = w.Query(context.Background(), SourceQuery{
		Relation: "r1",
		Filters:  []Filter{{Column: "revenue", Op: ">", Value: relalg.NumV(2e6)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Errorf("range filter result = %s", rel)
	}
}

func TestRelationalWrapperUsesIndex(t *testing.T) {
	db := sampleDB()
	tab, _ := db.Table("r1")
	if err := tab.CreateIndex("cname"); err != nil {
		t.Fatal(err)
	}
	w := NewRelational(db)
	rel, err := w.Query(context.Background(), SourceQuery{
		Relation: "r1",
		Filters: []Filter{
			{Column: "cname", Op: "=", Value: relalg.StrV("SAP")},
			{Column: "revenue", Op: ">", Value: relalg.NumV(0)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Tuples[0][0].S != "SAP" {
		t.Errorf("indexed lookup = %s", rel)
	}
}

func TestSpecParseAndValidate(t *testing.T) {
	spec, err := ParseSpec(CurrencySpecCrawl)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Relation != "r3" || len(spec.Schema.Columns) != 3 {
		t.Errorf("spec relation = %s %v", spec.Relation, spec.Schema.Names())
	}
	if spec.Schema.Columns[2].Type != relalg.KindNumber {
		t.Error("rate column should be numeric")
	}
	if spec.Start != "index" || spec.StartURL != "/rates" {
		t.Errorf("start = %s %s", spec.StartURL, spec.Start)
	}
	// Column tags are the CSV header's, synonyms included.
	spec, err = ParseSpec("relation r(n:int, x:float, f:bool, s)\nstart \"/x\" -> a\nstate a\n  emit")
	if err != nil {
		t.Fatal(err)
	}
	want := []relalg.Kind{relalg.KindNumber, relalg.KindNumber, relalg.KindBool, relalg.KindString}
	for i, k := range want {
		if got := spec.Schema.Columns[i].Type; got != k {
			t.Errorf("column %s type = %v, want %v", spec.Schema.Columns[i].Name, got, k)
		}
	}
}

func TestSpecParseErrors(t *testing.T) {
	bad := map[string]string{
		"no relation":      "start \"/x\" -> a\nstate a\n  emit",
		"bad directive":    "relation r(a)\nstart \"/x\" -> a\nstate a\n  frobnicate",
		"undefined state":  "relation r(a)\nstart \"/x\" -> nope\nstate a\n  emit",
		"unknown column":   "relation r(a)\nstart \"/x\" -> a\nstate a\n  match \"(x)\" as b\n  emit",
		"bad regexp":       "relation r(a)\nstart \"/x\" -> a\nstate a\n  match \"(\" as a\n  emit",
		"captures":         "relation r(a, b)\nstart \"/x\" -> a\nstate a\n  rows \"(x)\" as a, b",
		"follow undefined": "relation r(a)\nstart \"/x\" -> a\nstate a\n  follow \"(x)\" -> nowhere",
		"param not col":    "relation r(a)\nparam q\nstart \"/x\" -> a\nstate a\n  emit",
		"rule outside":     "relation r(a)\nmatch \"(x)\" as a",
		"unknown type":     "relation r(a:int, b:wat)\nstart \"/x\" -> a\nstate a\n  emit",
	}
	for name, src := range bad {
		if _, err := ParseSpec(src); err == nil {
			t.Errorf("%s: ParseSpec succeeded, want error", name)
		}
	}
}

func TestWebWrapperCrawl(t *testing.T) {
	site := web.NewCurrencySite(web.PaperRates())
	w := NewWeb("currencyweb", site, MustParseSpec(CurrencySpecCrawl))
	rel, err := w.Query(context.Background(), SourceQuery{Relation: "r3"})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 4 {
		t.Fatalf("crawl found %d rates, want 4:\n%s", rel.Len(), rel)
	}
	// Check the paper's JPY→USD rate survived extraction and typing.
	found := false
	for _, tup := range rel.Tuples {
		if tup[0].S == "JPY" && tup[1].S == "USD" {
			found = true
			if tup[2].N != 0.0096 {
				t.Errorf("JPY→USD rate = %v", tup[2])
			}
		}
	}
	if !found {
		t.Error("JPY→USD pair missing")
	}
}

func TestWebWrapperLocalFilters(t *testing.T) {
	site := web.NewCurrencySite(web.PaperRates())
	w := NewWeb("currencyweb", site, MustParseSpec(CurrencySpecCrawl))
	rel, err := w.Query(context.Background(), SourceQuery{
		Relation: "r3",
		Filters:  []Filter{{Column: "toCur", Op: "=", Value: relalg.StrV("USD")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 3 {
		t.Errorf("filtered crawl = %s", rel)
	}
}

func TestWebWrapperLookupRequiresBindings(t *testing.T) {
	site := web.NewCurrencySite(web.PaperRates())
	w := NewWeb("currencyweb", site, MustParseSpec(CurrencySpecLookup))
	caps, err := w.Capabilities("r3")
	if err != nil {
		t.Fatal(err)
	}
	if len(caps.RequiredBindings) != 2 {
		t.Errorf("caps = %+v", caps)
	}
	// Without bindings: refused.
	if _, err := w.Query(context.Background(), SourceQuery{Relation: "r3"}); err == nil || !strings.Contains(err.Error(), "requires bindings") {
		t.Errorf("unbound lookup err = %v", err)
	}
	// With bindings: a single page fetch.
	site.ResetHits()
	rel, err := w.Query(context.Background(), SourceQuery{Relation: "r3", Filters: []Filter{
		{Column: "fromCur", Op: "=", Value: relalg.StrV("JPY")},
		{Column: "toCur", Op: "=", Value: relalg.StrV("USD")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Tuples[0][2].N != 0.0096 {
		t.Errorf("lookup = %s", rel)
	}
	if site.Hits() != 1 {
		t.Errorf("lookup fetched %d pages, want 1", site.Hits())
	}
}

func TestWebWrapperRowsExtraction(t *testing.T) {
	site := web.NewStockSite([]web.Quote{
		{Ticker: "IBM", Exchange: "NYSE", Price: 151.25, Currency: "USD"},
		{Ticker: "T", Exchange: "NYSE", Price: 38.5, Currency: "USD"},
		{Ticker: "NTT", Exchange: "TSE", Price: 880000, Currency: "JPY"},
	})
	w := NewWeb("stockweb", site, MustParseSpec(StockSpec))
	rel, err := w.Query(context.Background(), SourceQuery{Relation: "quotes"})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 3 {
		t.Fatalf("quotes = %s", rel)
	}
	// Inherited exchange column is attached to each row.
	byTicker := map[string]relalg.Tuple{}
	for _, tup := range rel.Tuples {
		byTicker[tup[0].S] = tup
	}
	if byTicker["NTT"][1].S != "TSE" || byTicker["NTT"][2].N != 880000 {
		t.Errorf("NTT row = %v", byTicker["NTT"])
	}
}

func TestWebWrapperProfileSite(t *testing.T) {
	site := web.NewProfileSite([]web.Profile{
		{Name: "IBM", Country: "USA", Sector: "Technology", Employees: 220000},
		{Name: "NTT", Country: "Japan", Sector: "Telecom", Employees: 330000},
	})
	w := NewWeb("profileweb", site, MustParseSpec(ProfileSpec))
	rel, err := w.Query(context.Background(), SourceQuery{Relation: "profiles"})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("profiles = %s", rel)
	}
}

func TestWebWrapperErrors(t *testing.T) {
	site := web.NewCurrencySite(web.PaperRates())
	w := NewWeb("currencyweb", site, MustParseSpec(CurrencySpecCrawl))
	if _, err := w.Query(context.Background(), SourceQuery{Relation: "zzz"}); err == nil {
		t.Error("unknown relation accepted")
	}
	// A broken site (missing start page) surfaces as a fetch error.
	empty := web.NewSite("empty")
	w2 := NewWeb("empty", empty, MustParseSpec(CurrencySpecCrawl))
	if _, err := w2.Query(context.Background(), SourceQuery{Relation: "r3"}); err == nil || !strings.Contains(err.Error(), "fetching") {
		t.Errorf("missing page err = %v", err)
	}
	// A page that stops matching the pattern is a wrapping error, not a
	// silent empty answer.
	broken := web.NewSite("broken")
	broken.AddPage("/rates", `<a href="/rate?from=USD&to=JPY">x</a>`)
	broken.AddPage("/rate?from=USD&to=JPY", "<html>layout changed!</html>")
	w3 := NewWeb("broken", broken, MustParseSpec(CurrencySpecCrawl))
	if _, err := w3.Query(context.Background(), SourceQuery{Relation: "r3"}); err == nil || !strings.Contains(err.Error(), "matched nothing") {
		t.Errorf("broken page err = %v", err)
	}
}

func TestCrawlCycleTermination(t *testing.T) {
	// Two pages linking to each other must not loop.
	site := web.NewSite("loopy")
	site.AddPage("/a", `v: 1 <a href="/b">b</a>`)
	site.AddPage("/b", `v: 2 <a href="/a">a</a>`)
	spec := MustParseSpec(`
relation loop(v:num)
start "/a" -> node
state node
  match "v: ([0-9]+)" as v
  emit
  follow "<a href=\"(/[ab])\">" -> node
`)
	w := NewWeb("loopy", site, spec)
	rel, err := w.Query(context.Background(), SourceQuery{Relation: "loop"})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Errorf("loop crawl = %s", rel)
	}
}

func TestApplyFiltersAndProject(t *testing.T) {
	rel := relalg.NewRelation("t", relalg.NewSchema(
		relalg.Column{Name: "a", Type: relalg.KindNumber},
		relalg.Column{Name: "b", Type: relalg.KindString},
	))
	rel.MustAdd(relalg.NumV(1), relalg.StrV("x"))
	rel.MustAdd(relalg.NumV(2), relalg.StrV("y"))
	got, err := ApplyFilters(rel, []Filter{{Column: "a", Op: ">=", Value: relalg.NumV(2)}})
	if err != nil || got.Len() != 1 {
		t.Errorf("ApplyFilters = %v, %v", got, err)
	}
	if _, err := ApplyFilters(rel, []Filter{{Column: "zzz", Op: "=", Value: relalg.NumV(1)}}); err == nil {
		t.Error("unknown filter column accepted")
	}
	p, err := ProjectColumns(rel, []string{"b"})
	if err != nil || len(p.Schema.Columns) != 1 || p.Schema.Columns[0].Name != "b" {
		t.Errorf("ProjectColumns = %v, %v", p, err)
	}
}

func TestRelationalInListFilter(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		db := sampleDB()
		if indexed {
			tab, err := db.Table("r1")
			if err != nil {
				t.Fatal(err)
			}
			if err := tab.CreateIndex("cname"); err != nil {
				t.Fatal(err)
			}
		}
		w := NewRelational(db)
		caps, err := w.Capabilities("r1")
		if err != nil || !caps.InList {
			t.Fatalf("indexed=%v: caps = %+v, %v (want InList)", indexed, caps, err)
		}
		rel, err := w.Query(context.Background(), SourceQuery{
			Relation: "r1",
			Filters: []Filter{{Column: "cname", Op: OpIn, Values: []relalg.Value{
				relalg.StrV("NTT"), relalg.StrV("IBM"), relalg.StrV("NTT"), // duplicate tolerated
			}}},
		})
		if err != nil {
			t.Fatalf("indexed=%v: %v", indexed, err)
		}
		if rel.Len() != 2 {
			t.Errorf("indexed=%v: IN matched %d rows, want 2:\n%s", indexed, rel.Len(), rel)
		}
		for _, tup := range rel.Tuples {
			if s := tup[0].S; s != "NTT" && s != "IBM" {
				t.Errorf("indexed=%v: IN returned %s", indexed, s)
			}
		}
		// NULL column values never match an IN list.
		empty, err := w.Query(context.Background(), SourceQuery{
			Relation: "r1",
			Filters:  []Filter{{Column: "cname", Op: OpIn, Values: []relalg.Value{relalg.Null}}},
		})
		if err != nil || empty.Len() != 0 {
			t.Errorf("indexed=%v: IN (NULL) = %d rows, %v; want 0 rows", indexed, empty.Len(), err)
		}
	}
}

func TestSourceQueryCanonical(t *testing.T) {
	base := SourceQuery{Relation: "r1", Filters: []Filter{
		{Column: "currency", Op: "=", Value: relalg.StrV("JPY")},
		{Column: "cname", Op: OpIn, Values: []relalg.Value{relalg.StrV("a"), relalg.StrV("b")}},
	}}
	// Filter order and IN-value order are canonicalized away.
	same := SourceQuery{Relation: "r1", Filters: []Filter{
		{Column: "cname", Op: OpIn, Values: []relalg.Value{relalg.StrV("b"), relalg.StrV("a")}},
		{Column: "currency", Op: "=", Value: relalg.StrV("JPY")},
	}}
	if base.Canonical() != same.Canonical() {
		t.Errorf("reordered filters changed the canonical key:\n%q\nvs\n%q", base.Canonical(), same.Canonical())
	}
	// Different values, relations or projections do not collide.
	diffs := []SourceQuery{
		{Relation: "r2", Filters: base.Filters},
		{Relation: "r1", Filters: []Filter{{Column: "currency", Op: "=", Value: relalg.StrV("USD")}}},
		{Relation: "r1", Filters: base.Filters, Columns: []string{"cname"}},
		{Relation: "r1", Filters: []Filter{
			{Column: "currency", Op: "=", Value: relalg.StrV("JPY")},
			{Column: "cname", Op: OpIn, Values: []relalg.Value{relalg.StrV("a")}},
		}},
	}
	for i, d := range diffs {
		if d.Canonical() == base.Canonical() {
			t.Errorf("query %d collides with base canonical key %q", i, base.Canonical())
		}
	}
	// Projection order is significant (it changes the result columns).
	p1 := SourceQuery{Relation: "r1", Columns: []string{"cname", "revenue"}}
	p2 := SourceQuery{Relation: "r1", Columns: []string{"revenue", "cname"}}
	if p1.Canonical() == p2.Canonical() {
		t.Error("projection order was canonicalized away; it must stay significant")
	}
}

func TestCheckRequiredBindingsAcceptsInList(t *testing.T) {
	caps := Capabilities{RequiredBindings: []string{"fromCur"}}
	if _, err := CheckRequiredBindings(caps, SourceQuery{
		Relation: "r3",
		Filters:  []Filter{{Column: "fromCur", Op: OpIn, Values: []relalg.Value{relalg.StrV("JPY")}}},
	}); err != nil {
		t.Errorf("non-empty IN on a required binding rejected: %v", err)
	}
	if _, err := CheckRequiredBindings(caps, SourceQuery{
		Relation: "r3",
		Filters:  []Filter{{Column: "fromCur", Op: OpIn}},
	}); err == nil {
		t.Error("empty IN accepted as a required binding")
	}
}

func TestRequiredBindingsOnRelational(t *testing.T) {
	w := NewRelational(sampleDB())
	w.Require = map[string][]string{"r1": {"cname"}}
	caps, err := w.Capabilities("r1")
	if err != nil {
		t.Fatal(err)
	}
	if len(caps.RequiredBindings) != 1 || caps.RequiredBindings[0] != "cname" {
		t.Errorf("required bindings = %v", caps.RequiredBindings)
	}
}
