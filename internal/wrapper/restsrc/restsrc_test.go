package restsrc

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/planner"
	"repro/internal/relalg"
	"repro/internal/sqlparse"
	"repro/internal/store"
	"repro/internal/wrapper"
)

func strCol(n string) relalg.Column { return relalg.Column{Name: n, Type: relalg.KindString} }
func numCol(n string) relalg.Column { return relalg.Column{Name: n, Type: relalg.KindNumber} }

// sameRow compares two rows value by value, kinds included: NumV(NaN)
// and StrV("NaN") print alike but differ here.
func sameRow(a, b relalg.Tuple) bool { return a.FullKey() == b.FullKey() }

// newFixture serves quotes (binding-required on cname) and indices
// (12 rows, so three pages at the default width) from an httptest server.
func newFixture(t *testing.T) (*Source, *Server) {
	t.Helper()
	db := store.NewDB("marketsdb")
	quotes := db.MustCreateTable("quotes", relalg.NewSchema(strCol("cname"), numCol("price")))
	for _, row := range []struct {
		c string
		p float64
	}{{"IBM", 145.5}, {"NTT", 88}, {"SONY", 61.25}, {"DT", 17.8}, {"BT", 4.5}, {"ACME", 0.01}} {
		quotes.MustInsert(relalg.StrV(row.c), relalg.NumV(row.p))
	}
	indices := db.MustCreateTable("indices", relalg.NewSchema(strCol("iname"), numCol("level")))
	for i := 0; i < 12; i++ {
		indices.MustInsert(relalg.StrV(string(rune('a'+i))), relalg.NumV(float64(1000+i)))
	}
	srv := NewServer(db)
	srv.Require = map[string][]string{"quotes": {"cname"}}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	src, err := DialContext(context.Background(), "markets", hs.URL, hs.Client())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	return src, srv
}

func TestDialDiscoversSchemaAndStats(t *testing.T) {
	src, _ := newFixture(t)
	rels := src.Relations()
	if len(rels) != 2 || rels[0] != "indices" || rels[1] != "quotes" {
		t.Fatalf("Relations = %v", rels)
	}
	schema, err := src.Schema("quotes")
	if err != nil {
		t.Fatal(err)
	}
	if schema.Columns[1].Name != "price" || schema.Columns[1].Type != relalg.KindNumber {
		t.Fatalf("quotes schema = %v", schema.Columns)
	}
	caps, err := src.Capabilities("quotes")
	if err != nil {
		t.Fatal(err)
	}
	if !caps.Selection || caps.Projection || caps.InList ||
		len(caps.RequiredBindings) != 1 || caps.RequiredBindings[0] != "cname" {
		t.Fatalf("capabilities = %+v", caps)
	}
	if n := src.EstimateRows(context.Background(), "indices"); n != 12 {
		t.Fatalf("EstimateRows(indices) = %d, want 12", n)
	}
	n, ok := src.DistinctCount(context.Background(), "quotes", "cname")
	if !ok || n != 6 {
		t.Fatalf("DistinctCount = %d, %v; want 6", n, ok)
	}
	if _, ok := src.DistinctCount(context.Background(), "quotes", "ghost"); ok {
		t.Fatal("DistinctCount(ghost) should report unknown")
	}
}

func TestPaginationStreamsAllPages(t *testing.T) {
	src, srv := newFixture(t)
	before := srv.Hits()
	rel, err := src.Query(context.Background(), wrapper.SourceQuery{Relation: "indices"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Tuples) != 12 {
		t.Fatalf("got %d rows, want 12", len(rel.Tuples))
	}
	// 12 rows at page width 5: pages 0 and 1 full, page 2 carries the
	// tail, so the client makes exactly three round trips.
	if got := srv.Hits() - before; got != 3 {
		t.Fatalf("pagination made %d round trips, want 3", got)
	}
	if rel.Tuples[0][0].S != "a" || rel.Tuples[11][0].S != "l" {
		t.Fatalf("page order broken: %v", rel.Tuples)
	}
}

func TestServerSideFiltersAndRequiredBindings(t *testing.T) {
	src, _ := newFixture(t)
	ctx := context.Background()
	// Unbound access to a binding-required relation is refused before any
	// page is fetched.
	if _, err := src.Query(ctx, wrapper.SourceQuery{Relation: "quotes"}); err == nil {
		t.Fatal("unbound query on quotes should fail")
	}
	rel, err := src.Query(ctx, wrapper.SourceQuery{
		Relation: "quotes",
		Columns:  []string{"price"},
		Filters:  []wrapper.Filter{{Column: "cname", Op: "=", Value: relalg.StrV("SONY")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Tuples) != 1 || rel.Tuples[0][0].N != 61.25 {
		t.Fatalf("bound quotes query = %v", rel.Tuples)
	}
	if got := rel.Schema.Names(); len(got) != 1 || got[0] != "price" {
		t.Fatalf("client-side projection broken: %v", got)
	}
	// A range filter the server evaluates: only pages of matching rows
	// come back.
	rel, err = src.Query(ctx, wrapper.SourceQuery{
		Relation: "indices",
		Filters:  []wrapper.Filter{{Column: "level", Op: ">=", Value: relalg.NumV(1010)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Tuples) != 2 {
		t.Fatalf("filtered indices = %v, want 2 rows", rel.Tuples)
	}
}

func TestFaultClassification(t *testing.T) {
	src, srv := newFixture(t)
	ctx := context.Background()
	srv.FailNext(1, 429, "2")
	_, err := src.Query(ctx, wrapper.SourceQuery{Relation: "indices"})
	if !errors.Is(err, wrapper.ErrRateLimited) {
		t.Fatalf("429 classified as %v, want rate-limited", err)
	}
	if after, ok := wrapper.RetryAfter(err); !ok || after != 2*time.Second {
		t.Fatalf("RetryAfter = %v, %v; want 2s hint", after, ok)
	}
	srv.FailNext(1, 503, "")
	if _, err := src.Query(ctx, wrapper.SourceQuery{Relation: "indices"}); !errors.Is(err, wrapper.ErrTransient) {
		t.Fatalf("503 classified as %v, want transient", err)
	}
	if _, err := src.Query(ctx, wrapper.SourceQuery{Relation: "ghost"}); err == nil {
		t.Fatal("unknown relation should fail locally")
	}
	// The server's own 404 for a relation it does not serve is permanent.
	src.rels["phantom"] = remoteRelation{schema: relalg.NewSchema(strCol("x"))}
	if _, err := src.Query(ctx, wrapper.SourceQuery{Relation: "phantom"}); !errors.Is(err, wrapper.ErrPermanent) {
		t.Fatalf("server 404 classified as %v, want permanent", err)
	}
}

func TestMidStreamPageFault(t *testing.T) {
	src, srv := newFixture(t)
	st, err := src.QueryStream(context.Background(), wrapper.SourceQuery{Relation: "indices"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Drain the first page, then script the next page fetch to die.
	for i := 0; i < DefaultPageSize; i++ {
		if _, ok, err := st.Next(); !ok || err != nil {
			t.Fatalf("row %d: ok=%v err=%v", i, ok, err)
		}
	}
	srv.FailNext(1, 500, "")
	if _, _, err := st.Next(); !errors.Is(err, wrapper.ErrTransient) {
		t.Fatalf("mid-stream fault = %v, want transient", err)
	}
}

func TestStreamHonorsContext(t *testing.T) {
	src, _ := newFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	st, err := src.QueryStream(ctx, wrapper.SourceQuery{Relation: "indices"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, ok, err := st.Next(); !ok || err != nil {
		t.Fatalf("first Next: ok=%v err=%v", ok, err)
	}
	cancel()
	if _, _, err := st.Next(); err == nil {
		t.Fatal("Next after cancel should fail")
	}
}

// TestEngineRetriesAgainstRealHTTP closes the loop with the planner's
// fault machinery: a genuine HTTP backend answers 503 twice and then
// recovers, and the engine's retry loop (PR 6) absorbs the weather — the
// query succeeds and the server logs all three attempts.
func TestEngineRetriesAgainstRealHTTP(t *testing.T) {
	src, srv := newFixture(t)
	cat := planner.NewCatalog()
	cat.MustAddSource(src)
	ex := planner.NewExecutor(cat)
	ex.Retry = planner.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond}

	srv.FailNext(2, 503, "")
	before := srv.Hits()
	sess := ex.NewSession(context.Background(), planner.Limits{})
	defer sess.Close()
	res, err := ex.ExecuteSession(sess, sqlparse.MustParse("SELECT indices.iname FROM indices WHERE indices.level < 1003"))
	if err != nil {
		t.Fatalf("query against flaky HTTP backend: %v", err)
	}
	if len(res.Tuples) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Tuples))
	}
	if got := srv.Hits() - before; got < 3 {
		t.Fatalf("server saw %d attempts, want the two faults plus success", got)
	}
}

// TestNonFiniteNumbersOverTheWire: NaN and ±Inf, which JSON numbers
// cannot carry, travel as their strconv strings both ways — in the rows
// the server pages out and in a filter value the client pushes.
func TestNonFiniteNumbersOverTheWire(t *testing.T) {
	db := store.NewDB("oddsdb")
	tab := db.MustCreateTable("odds", relalg.NewSchema(strCol("sym"), numCol("qty")))
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 2}
	for i, v := range vals {
		tab.MustInsert(relalg.StrV(string(rune('a'+i))), relalg.NumV(v))
	}
	hs := httptest.NewServer(NewServer(db))
	t.Cleanup(hs.Close)
	src, err := DialContext(context.Background(), "odds", hs.URL, hs.Client())
	if err != nil {
		t.Fatal(err)
	}
	if rel, err := src.Query(context.Background(), wrapper.SourceQuery{Relation: "odds"}); err != nil {
		t.Errorf("scan: %v", err)
	} else if !slices.EqualFunc(rel.Tuples, tab.Scan().Tuples, sameRow) {
		t.Errorf("rows = %+v, want %+v", rel.Tuples, tab.Scan().Tuples)
	}
	// NaN and +Inf fail "< +Inf"; -Inf and 2 pass.
	rel, err := src.Query(context.Background(), wrapper.SourceQuery{
		Relation: "odds",
		Filters:  []wrapper.Filter{{Column: "qty", Op: "<", Value: relalg.NumV(math.Inf(1))}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Tuples) != 2 || rel.Tuples[0][0].S != "c" || rel.Tuples[1][0].S != "d" {
		t.Fatalf("qty < +Inf = %v, want rows c and d", rel.Tuples)
	}
}

// TestMistypedCellIsPermanent: a cell the service sends in another kind
// than its schema declares fails the query with a permanent fault naming
// the source and the column, instead of slipping through mistyped.
func TestMistypedCellIsPermanent(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/schema" {
			io.WriteString(w, `{"relations": {"stock": {"columns": ["sym:str", "qty:num"], "rows": 2}}}`)
			return
		}
		io.WriteString(w, `{"rows": [["A", 1], ["B", "oops"]]}`)
	}))
	t.Cleanup(hs.Close)
	src, err := DialContext(context.Background(), "shop", hs.URL, hs.Client())
	if err != nil {
		t.Fatal(err)
	}
	rel, err := src.Query(context.Background(), wrapper.SourceQuery{Relation: "stock"})
	if err == nil {
		t.Fatalf("mistyped cell accepted: %v", rel.Tuples)
	}
	if !errors.Is(err, wrapper.ErrPermanent) || wrapper.Retryable(err) ||
		!strings.Contains(err.Error(), "shop") || !strings.Contains(err.Error(), "qty") {
		t.Fatalf("error = %v, want a permanent fault naming source shop and column qty", err)
	}
}
