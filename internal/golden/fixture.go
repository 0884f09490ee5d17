// Package golden is the query-regression harness: a fixed corpus of SQL
// queries (testdata/queries) runs against a frozen registry mixing every
// backend kind the engine wraps — in-memory relational, CSV/JSON files,
// SQL-over-database/sql, and a paginated rate-limited REST service — and
// both the answers and the EXPLAIN plans are baselined to
// testdata/golden/*.golden. The comparison is semantic: result rows are
// order-insensitive unless the query orders them, and plan text is
// compared by structure (operator order, sources, pushed filters, bind
// joins and batch widths) with the volatile cost digits masked, so a cost
// model tweak that reorders a join fails the suite while a tweak that
// only re-prices the same plan does not. `make golden-update` regenerates
// the baselines deterministically.
package golden

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"

	"repro/internal/planner"
	"repro/internal/relalg"
	"repro/internal/store"
	"repro/internal/wrapper"
	"repro/internal/wrapper/filesrc"
	"repro/internal/wrapper/restsrc"
	"repro/internal/wrapper/sqlsrc"
)

// Fixture is the frozen four-backend registry every corpus query runs
// against. Each query gets a fresh Fixture, so adaptive statistics and
// probe caches from one query can never leak into another's plan.
type Fixture struct {
	// Ex is the engine over the heterogeneous catalog.
	Ex *planner.Executor
	// Rest is the REST fixture server (exposed for fault scripting in
	// self-tests).
	Rest *restsrc.Server

	hs *httptest.Server
}

func strCol(n string) relalg.Column  { return relalg.Column{Name: n, Type: relalg.KindString} }
func numCol(n string) relalg.Column  { return relalg.Column{Name: n, Type: relalg.KindNumber} }
func boolCol(n string) relalg.Column { return relalg.Column{Name: n, Type: relalg.KindBool} }

// NewFixture assembles the registry:
//
//	hq       in-memory relational   companies(cname, country, founded)
//	archive  CSV/JSON files        earnings.csv, sectors.json
//	finance  SQL over database/sql accounts, fx (fx requires cur; IN-lists batch 4-wide)
//	markets  paginated REST        quotes (requires cname), indices
//
// All company-bearing relations share cname keys, so the corpus can join
// across every pairing of backends. ctx bounds the REST source's discovery
// request.
func NewFixture(ctx context.Context) (*Fixture, error) {
	cat := planner.NewCatalog()

	// hq: the native in-memory relational source.
	hq := store.NewDB("hq")
	companies := hq.MustCreateTable("companies", relalg.NewSchema(strCol("cname"), strCol("country"), numCol("founded")))
	for _, r := range []struct {
		c, co string
		f     float64
	}{
		{"IBM", "US", 1911}, {"NTT", "JP", 1952}, {"SONY", "JP", 1946},
		{"DT", "DE", 1995}, {"BT", "UK", 1980}, {"ACME", "US", 1999},
	} {
		companies.MustInsert(relalg.StrV(r.c), relalg.StrV(r.co), relalg.NumV(r.f))
	}
	// trades: the corpus's bulk relation — large enough that the
	// parallelize pass fans its scan out and the joins over it probe with
	// partitioned input (the parallelism-directive entries, 29+). Deterministic
	// LCG-shuffled rows keyed by cname, so partitioned runs face unsorted,
	// repeating keys.
	tradeNames := []string{"IBM", "NTT", "SONY", "DT", "BT", "ACME"}
	trades := hq.MustCreateTable("trades", relalg.NewSchema(strCol("cname"), numCol("amount")))
	lcg := uint32(12345)
	for i := 0; i < 3000; i++ {
		lcg = lcg*1664525 + 1013904223
		trades.MustInsert(relalg.StrV(tradeNames[lcg%6]), relalg.NumV(float64(lcg%100000)))
	}
	if err := cat.AddSource(wrapper.NewRelational(hq)); err != nil {
		return nil, err
	}

	// archive: rows streamed from CSV and JSON files on disk.
	files, err := filesrc.New("archive", "testdata/files")
	if err != nil {
		return nil, err
	}
	if err := cat.AddSource(files); err != nil {
		return nil, err
	}

	// finance: a SQL server reached through database/sql. fx is a keyed
	// lookup (cur must be bound), so joins against it become bind joins
	// batched into 4-wide IN-lists.
	fdb := store.NewDB("financedb")
	accounts := fdb.MustCreateTable("accounts",
		relalg.NewSchema(strCol("cname"), numCol("expenses"), strCol("currency"), boolCol("audited")))
	for _, r := range []struct {
		c string
		e float64
		u string
		a bool
	}{
		{"IBM", 5000000, "USD", true}, {"NTT", 3000000, "JPY", true},
		{"SONY", 2500000, "JPY", false}, {"DT", 2000000, "DEM", true},
		{"BT", 1500000, "GBP", false}, {"ACME", 800000, "USD", false},
	} {
		accounts.MustInsert(relalg.StrV(r.c), relalg.NumV(r.e), relalg.StrV(r.u), relalg.BoolV(r.a))
	}
	fx := fdb.MustCreateTable("fx", relalg.NewSchema(strCol("cur"), numCol("usd")))
	for _, r := range []struct {
		c string
		v float64
	}{{"USD", 1}, {"JPY", 0.0091}, {"DEM", 0.58}, {"GBP", 1.62}} {
		fx.MustInsert(relalg.StrV(r.c), relalg.NumV(r.v))
	}
	sdb, _ := sqlsrc.OpenMem(fdb)
	finance := sqlsrc.New("finance", sdb)
	finance.Batch = 4
	finance.Require = map[string][]string{"fx": {"cur"}}
	finance.AddRelation("accounts", relalg.NewSchema(strCol("cname"), numCol("expenses"), strCol("currency"), boolCol("audited")))
	finance.AddRelation("fx", relalg.NewSchema(strCol("cur"), numCol("usd")))
	if err := cat.AddSource(finance); err != nil {
		return nil, err
	}

	// markets: a REST API behind a real HTTP server. quotes is
	// form-bound (cname required); indices pages 5 rows at a time.
	mdb := store.NewDB("marketsdb")
	quotes := mdb.MustCreateTable("quotes", relalg.NewSchema(strCol("cname"), numCol("price")))
	for _, r := range []struct {
		c string
		p float64
	}{
		{"IBM", 145.5}, {"NTT", 88}, {"SONY", 61.25},
		{"DT", 17.8}, {"BT", 4.5}, {"ACME", 0.01},
	} {
		quotes.MustInsert(relalg.StrV(r.c), relalg.NumV(r.p))
	}
	indices := mdb.MustCreateTable("indices", relalg.NewSchema(strCol("iname"), numCol("level")))
	for i := 0; i < 12; i++ {
		indices.MustInsert(relalg.StrV(fmt.Sprintf("ix%02d", i)), relalg.NumV(float64(1000+i)))
	}
	rest := restsrc.NewServer(mdb)
	rest.Require = map[string][]string{"quotes": {"cname"}}
	hs := httptest.NewServer(rest)
	markets, err := restsrc.DialContext(ctx, "markets", hs.URL, hs.Client())
	if err != nil {
		hs.Close()
		return nil, err
	}
	if err := cat.AddSource(markets); err != nil {
		hs.Close()
		return nil, err
	}

	return &Fixture{Ex: planner.NewExecutor(cat), Rest: rest, hs: hs}, nil
}

// Close releases the fixture's HTTP server.
func (f *Fixture) Close() {
	if f.hs != nil {
		f.hs.Close()
	}
}

// downFetcher fails every page fetch with a transient fault — the
// partial-results corpus entries run the paper's system with its currency
// site unreachable.
type downFetcher struct{}

// Get implements wrapper.Fetcher.
func (downFetcher) Get(context.Context, string) (string, error) {
	return "", wrapper.Transient(errors.New("currency site unreachable"))
}
