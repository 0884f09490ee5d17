package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/coin"
	"repro/internal/client"
	"repro/internal/relalg"
	"repro/internal/store"
	"repro/internal/wrapper"
)

// TestArchitectureEndToEnd is experiment E3: the full Figure 1 stack —
// client API over the HTTP-tunneled protocol, server, mediation engine,
// multi-database engine, wrappers, relational and Web sources — answering
// the paper's query.
func TestArchitectureEndToEnd(t *testing.T) {
	sys := coin.Figure2System()
	ts := httptest.NewServer(sys.Handler())
	defer ts.Close()

	conn, err := client.Open(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	// Schema handshake (dictionary service).
	if got := conn.Relations(); len(got) != 3 {
		t.Errorf("relations = %v", got)
	}
	if cols, ok := conn.Columns("r1"); !ok || len(cols) != 3 {
		t.Errorf("r1 columns = %v, %v", cols, ok)
	}
	found := false
	for _, c := range conn.Contexts() {
		if c == "c2" {
			found = true
		}
	}
	if !found {
		t.Errorf("contexts = %v", conn.Contexts())
	}

	// Naive baseline: empty answer.
	naive, err := conn.QueryNaiveCtx(context.Background(), coin.PaperQ1, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(naive.Rows) != 0 {
		t.Errorf("naive rows = %v", naive.Rows)
	}

	// Mediated: the paper's correct answer.
	res, err := conn.QueryCtx(context.Background(), coin.PaperQ1, "c2", client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0] != "NTT" || res.Rows[0][1] != 9600000.0 {
		t.Errorf("answer = %v", res.Rows[0])
	}
	if res.Branches != 3 || !strings.Contains(res.MediatedSQL, "UNION") {
		t.Errorf("mediation metadata: branches=%d sql=\n%s", res.Branches, res.MediatedSQL)
	}

	// Mediate-only endpoint.
	sql, branches, err := conn.Mediate(context.Background(), coin.PaperQ1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	if branches != 3 || !strings.Contains(sql, "'JPY'") {
		t.Errorf("mediate-only: branches=%d\n%s", branches, sql)
	}
}

func TestServerErrors(t *testing.T) {
	sys := coin.Figure2System()
	ts := httptest.NewServer(sys.Handler())
	defer ts.Close()
	conn, err := client.Open(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.QueryCtx(context.Background(), "SELECT nope FROM nosuch", "c2", client.Options{}); err == nil {
		t.Error("bad query succeeded")
	}
	if _, err := conn.QueryCtx(context.Background(), coin.PaperQ1, "nocontext", client.Options{}); err == nil {
		t.Error("unknown context succeeded")
	}
	if _, _, err := conn.Mediate(context.Background(), "", "c2"); err == nil {
		t.Error("empty SQL accepted")
	}
	if _, err := client.Open("http://127.0.0.1:1"); err == nil {
		t.Error("dead server accepted")
	}
}

func TestQBEPages(t *testing.T) {
	sys := coin.Figure2System()
	ts := httptest.NewServer(sys.Handler())
	defer ts.Close()

	get := func(path string) string {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 64<<10)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return b.String()
	}

	form := get("/qbe")
	if !strings.Contains(form, "Query-By-Example") || !strings.Contains(form, "r1") {
		t.Errorf("QBE form:\n%s", form)
	}

	run := get("/qbe/run?context=c2&sql=" + strings.ReplaceAll(
		"SELECT rl.cname, rl.revenue FROM r1 rl, r2 WHERE rl.cname = r2.cname AND rl.revenue > r2.expenses",
		" ", "+"))
	if !strings.Contains(run, "NTT") || !strings.Contains(run, "Mediated query") {
		t.Errorf("QBE run:\n%s", run)
	}
	// Cells print through relalg.Value's String: plain decimals, not the
	// %v of a boxed float64 (9.6e+06).
	if !strings.Contains(run, "<td>9600000</td>") {
		t.Errorf("QBE run renders revenue other than as 9600000:\n%s", run)
	}

	naive := get("/qbe/run?naive=1&sql=SELECT+r2.cname+FROM+r2")
	if !strings.Contains(naive, "IBM") {
		t.Errorf("QBE naive run:\n%s", naive)
	}
	bad := get("/qbe/run?context=c2&sql=SELECT+zzz+FROM+nosuch")
	if !strings.Contains(bad, "unknown relation") {
		t.Errorf("QBE error page:\n%s", bad)
	}
}

// TestConcurrencyKnobOverWire: the per-source concurrency cap travels
// from client.Options through the wire into the query session — a capped
// query still returns the paper's answer, and a negative cap is rejected
// before any session starts.
func TestConcurrencyKnobOverWire(t *testing.T) {
	sys := coin.Figure2System()
	ts := httptest.NewServer(sys.Handler())
	defer ts.Close()
	conn, err := client.Open(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := conn.QueryCtx(context.Background(), coin.PaperQ1, "c2", client.Options{MaxConcurrentPerSource: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "NTT" {
		t.Errorf("capped query rows = %v", res.Rows)
	}

	resp, err := http.Post(ts.URL+"/api/query", "application/json",
		strings.NewReader(`{"sql":"SELECT r1.cname FROM r1","max_concurrent_per_source":-1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative max_concurrent_per_source: status = %d, want 400", resp.StatusCode)
	}
}

// TestExplainAnalyzeOverWire: /api/explain with analyze=true executes the
// branches and returns plans carrying measured columns; governor fields
// still validate.
func TestExplainAnalyzeOverWire(t *testing.T) {
	sys := coin.Figure2System()
	ts := httptest.NewServer(sys.Handler())
	defer ts.Close()

	body := `{"sql": ` + strconv.Quote(coin.PaperQ1) + `, "context": "c2", "analyze": true}`
	resp, err := http.Post(ts.URL+"/api/explain", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	var er struct {
		Plan string `json:"plan"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"act_rows=", "act_queries=", "est_cost="} {
		if !strings.Contains(er.Plan, want) {
			t.Errorf("analyzed plan missing %q:\n%s", want, er.Plan)
		}
	}

	// Bad governor fields reject before executing anything.
	bad := `{"sql": "SELECT r1.cname FROM r1", "context": "c2", "analyze": true, "timeout": "yes"}`
	resp2, err := http.Post(ts.URL+"/api/explain", "application/json", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad timeout status = %s, want 400", resp2.Status)
	}
}

// TestExplainHonorsRequestLimits: both /api/explain verbs run under the
// request's governor fields, as the query itself does: EXPLAIN ANALYZE
// stops at max_rows, and a malformed field is refused on both verbs.
func TestExplainHonorsRequestLimits(t *testing.T) {
	sys := coin.Figure2System()
	db := store.NewDB("numsrc")
	tab := db.MustCreateTable("nums", relalg.NewSchema(relalg.Column{Name: "n", Type: relalg.KindNumber}))
	for i := 0; i < 50000; i++ {
		tab.MustInsert(relalg.NumV(float64(i)))
	}
	if err := sys.AddRelationalSource(db, nil); err != nil {
		t.Fatal(err)
	}
	h := sys.Handler()
	explain := func(fields string) (int, string) {
		body := `{"sql": "SELECT nums.n FROM nums WHERE nums.n > 5", "context": "c2"` + fields + `}`
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/explain", strings.NewReader(body)))
		var er struct {
			Plan string `json:"plan"`
		}
		_ = json.Unmarshal(rec.Body.Bytes(), &er)
		return rec.Code, er.Plan
	}
	for _, verb := range []string{"", `, "analyze": true`} {
		if code, plan := explain(verb); code != http.StatusOK || !strings.Contains(plan, "nums @ numsrc") {
			t.Errorf("%q: status %d, plan without the nums scan:\n%s", verb, code, plan)
		}
		if code, _ := explain(verb + `, "timeout": "soon"`); code != http.StatusBadRequest {
			t.Errorf("%q with a malformed timeout: status %d, want 400", verb, code)
		}
	}
	// The analyzed run stops at max_rows, as the query itself would.
	if code, plan := explain(`, "analyze": true, "max_rows": 1`); code != http.StatusOK || !strings.Contains(plan, "act_tuples=1 ") {
		t.Errorf("analyze with max_rows 1: status %d, the run did not stop at one row:\n%s", code, plan)
	}
}

// slowStats is a source whose statistics probes hang until their context
// dies, as a slow DBMS's COUNT(DISTINCT) would; seen receives what each
// probe's context said when it let go (nil: the probe gave up waiting).
type slowStats struct {
	wrapper.Wrapper
	entered chan struct{}
	seen    chan error
}

func (s *slowStats) probe(ctx context.Context) {
	select {
	case s.entered <- struct{}{}:
	default:
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
	}
	s.seen <- ctx.Err()
}

func (s *slowStats) EstimateRows(ctx context.Context, relation string) int {
	s.probe(ctx)
	return 0
}

func (s *slowStats) DistinctCount(ctx context.Context, relation, column string) (int, bool) {
	s.probe(ctx)
	return 0, false
}

// TestExplainCancelledWithRequest: plain /api/explain plans under the
// request's context, so a receiver that goes away stops the planner's
// statistics probes instead of leaving them running against the source.
func TestExplainCancelledWithRequest(t *testing.T) {
	sys := coin.Figure2System()
	db := store.NewDB("statsrc")
	schema := relalg.NewSchema(relalg.Column{Name: "n", Type: relalg.KindNumber})
	db.MustCreateTable("nums", schema)
	src := &slowStats{Wrapper: wrapper.NewRelational(db), entered: make(chan struct{}, 1), seen: make(chan error, 16)}
	sys.Catalog.MustAddSource(src)
	if err := sys.Registry.RegisterRelation("nums", schema, nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sys.Handler())
	defer ts.Close()
	conn, err := client.Open(ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-src.entered
		cancel()
	}()
	start := time.Now()
	_, err = conn.Plan(ctx, "SELECT a.n FROM nums a, nums b WHERE a.n = b.n", "c2", false, client.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Plan under a cancelled context: err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancelled Plan returned after %v", d)
	}
	select {
	case perr := <-src.seen:
		if !errors.Is(perr, context.Canceled) {
			t.Errorf("statistics probe ended with ctx.Err() = %v, want context.Canceled", perr)
		}
	case <-time.After(3 * time.Second):
		t.Error("statistics probe still running after the receiver went away")
	}
}

// countingBody counts the bytes a handler consumed from a request body.
type countingBody struct {
	r    io.Reader
	read int
}

func (c *countingBody) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.read += n
	return n, err
}

// TestRequestBodyBounded: a request body past the 1 MiB cap is refused
// with 413 and the usual error JSON, without the handler reading (let
// alone buffering) the rest of it; an ordinary request is unaffected.
func TestRequestBodyBounded(t *testing.T) {
	h := coin.Figure2System().Handler()

	huge := `{"sql": "SELECT r1.cname FROM r1 WHERE r1.cname = '` + strings.Repeat("x", 2<<20) + `'"}`
	body := &countingBody{r: strings.NewReader(huge)}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/query", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB body: status = %d, want 413", rec.Code)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "exceeds") {
		t.Errorf("413 body = %q (decode err %v), want an ErrorResponse naming the limit", e.Error, err)
	}
	if limit := 1<<20 + 4096; body.read > limit {
		t.Errorf("handler read %d bytes of an oversized body, want <= %d", body.read, limit)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/query",
		strings.NewReader(`{"sql": `+strconv.Quote(coin.PaperQ1)+`, "context": "c2"}`)))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "NTT") {
		t.Errorf("ordinary request: status = %d body = %s", rec.Code, rec.Body.String())
	}
}
