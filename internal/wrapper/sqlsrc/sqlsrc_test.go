package sqlsrc

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/relalg"
	"repro/internal/store"
	"repro/internal/wrapper"
)

func strCol(n string) relalg.Column  { return relalg.Column{Name: n, Type: relalg.KindString} }
func numCol(n string) relalg.Column  { return relalg.Column{Name: n, Type: relalg.KindNumber} }
func boolCol(n string) relalg.Column { return relalg.Column{Name: n, Type: relalg.KindBool} }

func newFixture(t *testing.T) (*Source, *MemDriver) {
	t.Helper()
	db := store.NewDB("financedb")
	accounts := db.MustCreateTable("accounts",
		relalg.NewSchema(strCol("cname"), numCol("expenses"), strCol("currency"), boolCol("audited")))
	accounts.MustInsert(relalg.StrV("IBM"), relalg.NumV(5000000), relalg.StrV("USD"), relalg.BoolV(true))
	accounts.MustInsert(relalg.StrV("NTT"), relalg.NumV(3000000), relalg.StrV("JPY"), relalg.BoolV(true))
	accounts.MustInsert(relalg.StrV("SONY"), relalg.NumV(2500000), relalg.StrV("JPY"), relalg.BoolV(false))
	accounts.MustInsert(relalg.StrV("DT"), relalg.NumV(2000000), relalg.StrV("DEM"), relalg.BoolV(true))
	accounts.MustInsert(relalg.StrV("BT"), relalg.Null, relalg.StrV("GBP"), relalg.BoolV(false))
	fx := db.MustCreateTable("fx", relalg.NewSchema(strCol("cur"), numCol("usd")))
	fx.MustInsert(relalg.StrV("USD"), relalg.NumV(1))
	fx.MustInsert(relalg.StrV("JPY"), relalg.NumV(0.0091))
	fx.MustInsert(relalg.StrV("DEM"), relalg.NumV(0.58))
	fx.MustInsert(relalg.StrV("GBP"), relalg.NumV(1.62))

	sqldb, drv := OpenMem(db)
	t.Cleanup(func() { sqldb.Close() })
	src := New("finance", sqldb).
		AddRelation("accounts", relalg.NewSchema(strCol("cname"), numCol("expenses"), strCol("currency"), boolCol("audited"))).
		AddRelation("fx", relalg.NewSchema(strCol("cur"), numCol("usd")))
	return src, drv
}

func lastStatement(t *testing.T, drv *MemDriver) string {
	t.Helper()
	stmts := drv.Statements()
	if len(stmts) == 0 {
		t.Fatal("no statements reached the driver")
	}
	return stmts[len(stmts)-1]
}

func TestPushdownCompilesToSQL(t *testing.T) {
	src, drv := newFixture(t)
	rel, err := src.Query(context.Background(), wrapper.SourceQuery{
		Relation: "accounts",
		Columns:  []string{"cname", "expenses"},
		Filters: []wrapper.Filter{
			{Column: "currency", Op: "=", Value: relalg.StrV("JPY")},
			{Column: "expenses", Op: ">", Value: relalg.NumV(2600000)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Tuples) != 1 || rel.Tuples[0][0].S != "NTT" {
		t.Fatalf("rows = %v, want just NTT", rel.Tuples)
	}
	got := lastStatement(t, drv)
	want := `SELECT "cname", "expenses" FROM "accounts" WHERE "currency" = ? AND "expenses" > ?`
	if got != want {
		t.Fatalf("served SQL = %q, want %q", got, want)
	}
}

func TestInListCompilesToSQL(t *testing.T) {
	src, drv := newFixture(t)
	rel, err := src.Query(context.Background(), wrapper.SourceQuery{
		Relation: "fx",
		Filters: []wrapper.Filter{{Column: "cur", Op: wrapper.OpIn, Values: []relalg.Value{
			relalg.StrV("JPY"), relalg.StrV("GBP"), relalg.StrV("XXX"),
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Tuples) != 2 {
		t.Fatalf("IN query returned %d rows, want 2: %v", len(rel.Tuples), rel.Tuples)
	}
	got := lastStatement(t, drv)
	if !strings.Contains(got, `"cur" IN (?, ?, ?)`) {
		t.Fatalf("served SQL %q should contain a 3-wide IN list", got)
	}
}

func TestStatserAndRowEstimateProbes(t *testing.T) {
	src, drv := newFixture(t)
	n, ok := src.DistinctCount(context.Background(), "accounts", "currency")
	if !ok || n != 4 {
		t.Fatalf("DistinctCount(currency) = %d, %v; want 4", n, ok)
	}
	if got, want := lastStatement(t, drv), `SELECT COUNT(DISTINCT "currency") FROM "accounts"`; got != want {
		t.Fatalf("served SQL = %q, want %q", got, want)
	}
	if rows := src.EstimateRows(context.Background(), "accounts"); rows != 5 {
		t.Fatalf("EstimateRows = %d, want 5", rows)
	}
	if got, want := lastStatement(t, drv), `SELECT COUNT(*) FROM "accounts"`; got != want {
		t.Fatalf("served SQL = %q, want %q", got, want)
	}
	// Both probes are cached: repeating them must not reach the server.
	before := len(drv.Statements())
	if _, ok := src.DistinctCount(context.Background(), "accounts", "currency"); !ok {
		t.Fatal("cached DistinctCount lost")
	}
	if src.EstimateRows(context.Background(), "accounts") != 5 {
		t.Fatal("cached row estimate changed")
	}
	if after := len(drv.Statements()); after != before {
		t.Fatalf("cached probes still hit the server (%d -> %d statements)", before, after)
	}
}

func TestStatProbesHonorContext(t *testing.T) {
	src, drv := newFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // dead before any probe starts
	if rows := src.EstimateRows(ctx, "accounts"); rows != 0 {
		t.Fatalf("EstimateRows under a canceled context = %d, want 0 (degraded)", rows)
	}
	if _, ok := src.DistinctCount(ctx, "accounts", "currency"); ok {
		t.Fatal("DistinctCount under a canceled context should report unknown")
	}
	for _, stmt := range drv.Statements() {
		if strings.Contains(stmt, "COUNT") {
			t.Fatalf("canceled probe still reached the server: %q", stmt)
		}
	}
	// The failed probes must not poison the cache: a live context probes
	// for real and caches the genuine answers.
	if rows := src.EstimateRows(context.Background(), "accounts"); rows != 5 {
		t.Fatalf("EstimateRows after cancellation recovery = %d, want 5", rows)
	}
	if n, ok := src.DistinctCount(context.Background(), "accounts", "currency"); !ok || n != 4 {
		t.Fatalf("DistinctCount after cancellation recovery = %d, %v; want 4", n, ok)
	}
}

func TestCapabilitiesAdvertiseBatchedInList(t *testing.T) {
	src, _ := newFixture(t)
	caps, err := src.Capabilities("accounts")
	if err != nil {
		t.Fatal(err)
	}
	if !caps.Selection || !caps.Projection || !caps.InList || caps.BatchSize != DefaultBatch {
		t.Fatalf("capabilities = %+v, want full pushdown with batch %d", caps, DefaultBatch)
	}
	if _, err := src.Capabilities("ghost"); err == nil {
		t.Fatal("Capabilities(ghost) should fail")
	}
}

func TestStreamingNullsAndEarlyClose(t *testing.T) {
	src, _ := newFixture(t)
	st, err := src.QueryStream(context.Background(), wrapper.SourceQuery{Relation: "accounts"})
	if err != nil {
		t.Fatal(err)
	}
	var sawNull, sawBool bool
	count := 0
	for {
		tup, ok, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		count++
		if tup[1].IsNull() {
			sawNull = true
		}
		if tup[3].K == relalg.KindBool {
			sawBool = true
		}
	}
	if count != 5 || !sawNull || !sawBool {
		t.Fatalf("streamed %d rows (null=%v bool=%v), want 5 with NULL and bool round-trip", count, sawNull, sawBool)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Early close while rows remain must release the cursor cleanly.
	st2, err := src.QueryStream(context.Background(), wrapper.SourceQuery{Relation: "accounts"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st2.Next(); !ok || err != nil {
		t.Fatalf("first Next: ok=%v err=%v", ok, err)
	}
	if err := st2.Close(); err != nil {
		t.Fatalf("early Close: %v", err)
	}
}

func TestCompileErrors(t *testing.T) {
	src, _ := newFixture(t)
	ctx := context.Background()
	if _, err := src.Query(ctx, wrapper.SourceQuery{Relation: "ghost"}); err == nil {
		t.Fatal("unknown relation should fail")
	}
	if _, err := src.Query(ctx, wrapper.SourceQuery{
		Relation: "fx",
		Filters:  []wrapper.Filter{{Column: "ghost", Op: "=", Value: relalg.NumV(1)}},
	}); err == nil {
		t.Fatal("filter on unknown column should fail")
	}
	if _, err := src.Query(ctx, wrapper.SourceQuery{
		Relation: "fx",
		Filters:  []wrapper.Filter{{Column: "cur", Op: "~", Value: relalg.StrV("x")}},
	}); err == nil {
		t.Fatal("unsupported operator should fail")
	}
	if _, err := src.Query(ctx, wrapper.SourceQuery{
		Relation: "fx",
		Filters:  []wrapper.Filter{{Column: "cur", Op: wrapper.OpIn}},
	}); err == nil {
		t.Fatal("empty IN list should fail")
	}
	src.AddRelation(`bad"name`, relalg.NewSchema(strCol("x")))
	if _, err := src.Query(ctx, wrapper.SourceQuery{Relation: `bad"name`}); err == nil {
		t.Fatal("identifier that escapes quoting should fail")
	}
	if _, ok := src.DistinctCount(context.Background(), "fx", "ghost"); ok {
		t.Fatal("DistinctCount on unknown column should report unknown")
	}
}

func TestRequiredBindingsEnforced(t *testing.T) {
	src, drv := newFixture(t)
	src.Require = map[string][]string{"fx": {"cur"}}
	caps, err := src.Capabilities("fx")
	if err != nil {
		t.Fatal(err)
	}
	if len(caps.RequiredBindings) != 1 || caps.RequiredBindings[0] != "cur" {
		t.Fatalf("capabilities = %+v, want cur required", caps)
	}
	before := len(drv.Statements())
	if _, err := src.Query(context.Background(), wrapper.SourceQuery{Relation: "fx"}); err == nil {
		t.Fatal("unbound query on required relation should fail")
	}
	if len(drv.Statements()) != before {
		t.Fatal("unbound query should be refused before reaching the server")
	}
	// An IN-list covers the binding — the batched bind-join form.
	rel, err := src.Query(context.Background(), wrapper.SourceQuery{
		Relation: "fx",
		Filters: []wrapper.Filter{{Column: "cur", Op: wrapper.OpIn,
			Values: []relalg.Value{relalg.StrV("JPY"), relalg.StrV("USD")}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Tuples) != 2 {
		t.Fatalf("bound IN query = %v, want 2 rows", rel.Tuples)
	}
}

func TestMemDriverRejectsUnsupportedSQL(t *testing.T) {
	_, drv := newFixture(t)
	for _, bad := range []string{
		`UPDATE "fx" SET "usd" = ?`,
		`SELECT "cur" FROM "fx" ORDER BY "cur"`,
		`SELECT cur FROM "fx"`,
	} {
		if _, err := parseMemSQL(bad); err == nil {
			t.Errorf("parseMemSQL(%q) should fail", bad)
		}
	}
	drv.Reset()
	if got := drv.Statements(); len(got) != 0 {
		t.Fatalf("Reset left statements: %v", got)
	}
}

// TestMistypedCellIsPermanent: a stored value of another kind than the
// relation's declared schema fails the scan with a permanent fault naming
// the source and the column, after the rows before it.
func TestMistypedCellIsPermanent(t *testing.T) {
	db := store.NewDB("shopdb")
	stock := db.MustCreateTable("stock", relalg.NewSchema(strCol("sym"), strCol("qty")))
	stock.MustInsert(relalg.StrV("A"), relalg.StrV("1"))
	stock.MustInsert(relalg.StrV("B"), relalg.StrV("oops"))
	sqldb, _ := OpenMem(db)
	t.Cleanup(func() { sqldb.Close() })
	src := New("shop", sqldb).AddRelation("stock", relalg.NewSchema(strCol("sym"), numCol("qty")))

	st, err := src.QueryStream(context.Background(), wrapper.SourceQuery{Relation: "stock"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if tup, ok, err := st.Next(); !ok || err != nil || !tup[1].Equal(relalg.NumV(1)) {
		t.Fatalf("first row = %v, %v, %v; want qty 1 read as a number", tup, ok, err)
	}
	_, _, err = st.Next()
	if err == nil {
		t.Fatal("mistyped cell accepted")
	}
	if !errors.Is(err, wrapper.ErrPermanent) || wrapper.Retryable(err) ||
		!strings.Contains(err.Error(), "shop") || !strings.Contains(err.Error(), "qty") {
		t.Fatalf("error = %v, want a permanent fault naming source shop and column qty", err)
	}
}
