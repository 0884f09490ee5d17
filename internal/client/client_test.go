package client_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/coin"
	"repro/internal/client"
	"repro/internal/wire"
	"repro/internal/wrapper"

	"net/http/httptest"
)

func testConn(t *testing.T) *client.Conn {
	t.Helper()
	sys := coin.Figure2System()
	ts := httptest.NewServer(sys.Handler())
	t.Cleanup(ts.Close)
	conn, err := client.Open(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

func TestCursorScan(t *testing.T) {
	conn := testConn(t)
	res, err := conn.QueryCtx(context.Background(), "SELECT r1.cname, r1.revenue FROM r1 ORDER BY r1.revenue DESC", "c2", client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cur := res.Cursor()
	var names []string
	var revs []float64
	for cur.Next() {
		var name string
		var rev float64
		if err := cur.Scan(&name, &rev); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		revs = append(revs, rev)
	}
	if len(names) != 2 || names[0] != "IBM" || revs[1] != 9600000 {
		t.Errorf("cursor read %v %v", names, revs)
	}
	// Exhausted cursor refuses Scan.
	if err := cur.Scan(new(string), new(float64)); err == nil {
		t.Error("Scan after exhaustion succeeded")
	}
}

func TestCursorScanErrors(t *testing.T) {
	conn := testConn(t)
	res, err := conn.QueryCtx(context.Background(), "SELECT r2.cname FROM r2", "c2", client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cur := res.Cursor()
	if err := cur.Scan(new(string)); err == nil {
		t.Error("Scan before Next succeeded")
	}
	if !cur.Next() {
		t.Fatal("no rows")
	}
	if err := cur.Scan(new(float64)); err == nil {
		t.Error("type-mismatched Scan succeeded")
	}
	if err := cur.Scan(new(string), new(string)); err == nil {
		t.Error("arity-mismatched Scan succeeded")
	}
	var anyv interface{}
	if err := cur.Scan(&anyv); err != nil || anyv == nil {
		t.Errorf("interface{} Scan: %v %v", anyv, err)
	}
}

func TestExplainOverHTTP(t *testing.T) {
	conn := testConn(t)
	plan, err := conn.Plan(context.Background(), coin.PaperQ1, "c2", false, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mediated into 3 branch(es)", "step 1:", "est_cost="} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	if _, err := conn.Plan(context.Background(), "SELECT nope FROM nosuch", "c2", false, client.Options{}); err == nil {
		t.Error("bad explain succeeded")
	}
	// Mediate and Plan ride the caller's context like the query calls.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := conn.Plan(dead, coin.PaperQ1, "c2", false, client.Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("Plan under a cancelled context: err = %v, want context.Canceled", err)
	}
	if _, _, err := conn.Mediate(dead, coin.PaperQ1, "c2"); !errors.Is(err, context.Canceled) {
		t.Errorf("Mediate under a cancelled context: err = %v, want context.Canceled", err)
	}
}

func TestResultString(t *testing.T) {
	res := &client.Result{
		Columns: []wire.ColumnInfo{{Name: "cname"}, {Name: "revenue"}},
		Rows:    [][]interface{}{{"NTT", 9600000.0}},
	}
	s := res.String()
	if !strings.Contains(s, "cname") || !strings.Contains(s, "NTT") {
		t.Errorf("table:\n%s", s)
	}
}

// TestExplainAnalyzeOverHTTP: the client's EXPLAIN ANALYZE executes
// server-side and returns plans with measured columns.
func TestExplainAnalyzeOverHTTP(t *testing.T) {
	conn := testConn(t)
	plan, err := conn.Plan(context.Background(), coin.PaperQ1, "c2", true, client.Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"act_rows=", "act_queries=", "est_cost="} {
		if !strings.Contains(plan, want) {
			t.Errorf("analyzed plan missing %q:\n%s", want, plan)
		}
	}
	if _, err := conn.Plan(context.Background(), "SELECT nope FROM nosuch", "c2", true, client.Options{}); err == nil {
		t.Error("bad analyze succeeded")
	}
}

// downFetcher fails every currency-page fetch with a transient fault.
type downFetcher struct{}

func (downFetcher) Get(ctx context.Context, url string) (string, error) {
	return "", wrapper.Transient(errors.New("currency site unreachable"))
}

func brokenConn(t *testing.T) *client.Conn {
	t.Helper()
	sys := coin.Figure2SystemWith(downFetcher{})
	ts := httptest.NewServer(sys.Handler())
	t.Cleanup(ts.Close)
	conn, err := client.Open(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestPartialOptionSurfacesWarnings: Options.PartialResults degrades a query
// whose currency source is dead, and the client surfaces the dropped
// branches on Result.Warnings.
func TestPartialOptionSurfacesWarnings(t *testing.T) {
	conn := brokenConn(t)

	if _, err := conn.QueryCtx(context.Background(), coin.PaperQ1, "c2",
		client.Options{}); err == nil {
		t.Fatal("fail-fast query against a dead source succeeded")
	}

	res, err := conn.QueryCtx(context.Background(), coin.PaperQ1, "c2",
		client.Options{PartialResults: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) == 0 {
		t.Fatal("partial result carried no warnings")
	}
	for _, w := range res.Warnings {
		if w.Source != "currencyweb" || w.Branch == 0 {
			t.Errorf("warning %+v", w)
		}
	}
}

// TestPartialCursorWarnings: on the streaming path the warnings arrive
// with the trailer; RowCursor.Warnings is final once Next returns false.
func TestPartialCursorWarnings(t *testing.T) {
	conn := brokenConn(t)
	cur, err := conn.QueryStream(context.Background(), coin.PaperQ1, "c2", false,
		client.Options{PartialResults: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for cur.Next() {
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	warns := cur.Warnings()
	if len(warns) == 0 {
		t.Fatal("drained cursor carried no warnings")
	}
	for _, w := range warns {
		if w.Source != "currencyweb" {
			t.Errorf("warning %+v does not name currencyweb", w)
		}
	}
}
