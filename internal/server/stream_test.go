package server_test

// Tests for the session-aware HTTP layer: the NDJSON streaming wire path
// (first row delivered before the query finishes), per-request timeout
// and max_rows governors, and receiver disconnects cancelling the query
// all the way into the source fetches.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/coin"
	"repro/internal/client"
	"repro/internal/planner"
	"repro/internal/relalg"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/wrapper"
	"repro/internal/wrapper/wrappertest"
)

// gatedSystem wires a System over a gated relational source of n rows
// (naive queries only; no mediation knowledge attached).
func gatedSystem(t *testing.T, n int) (*coin.System, *wrappertest.Gate) {
	t.Helper()
	sys := coin.New(coin.NewModel())
	db := store.NewDB("slowsrc")
	tab := db.MustCreateTable("nums", relalg.NewSchema(
		relalg.Column{Name: "n", Type: relalg.KindNumber},
	))
	for i := 0; i < n; i++ {
		tab.MustInsert(relalg.NumV(float64(i)))
	}
	gw := wrappertest.NewGate(wrapper.NewRelational(db))
	sys.Catalog.MustAddSource(gw)
	return sys, gw
}

// TestStreamEndpointMediated drives /api/query/stream through the client
// cursor over the full Figure 2 stack: header metadata, the paper's
// answer row, clean stats-terminated end.
func TestStreamEndpointMediated(t *testing.T) {
	sys := coin.Figure2System()
	ts := httptest.NewServer(sys.Handler())
	defer ts.Close()
	conn, err := client.Open(ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	cur, err := conn.QueryStream(context.Background(), coin.PaperQ1, "c2", false, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if cur.Branches() != 3 || !strings.Contains(cur.MediatedSQL(), "UNION") {
		t.Errorf("stream header: branches=%d sql=%q", cur.Branches(), cur.MediatedSQL())
	}
	if len(cur.Columns()) != 2 {
		t.Errorf("columns = %v", cur.Columns())
	}
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
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "NTT" || revs[0] != 9600000 {
		t.Errorf("streamed answer = %v %v", names, revs)
	}
}

// TestStreamDeliversRowsWithoutFullMaterialization is the wire-level
// acceptance check: a LIMIT query over a gated 50k-row source completes
// over /api/query/stream even though the source only ever releases LIMIT
// tuples — the server cannot have materialized the full result before
// writing, and the transfer stats stay at LIMIT.
func TestStreamDeliversRowsWithoutFullMaterialization(t *testing.T) {
	sys, gw := gatedSystem(t, 50000)
	ts := httptest.NewServer(sys.Handler())
	defer ts.Close()
	conn, err := client.Open(ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	// Only 3 tuples will ever pass the gate. If the handler tried to
	// drain the source before writing, it would hang and the request
	// context would expire.
	go gw.Allow(3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cur, err := conn.QueryStream(ctx, "SELECT nums.n FROM nums LIMIT 3", "", true, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	rows := 0
	for cur.Next() {
		rows++
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != 3 {
		t.Fatalf("streamed %d rows, want 3", rows)
	}
	// The stream is closed before its trailer goes out, so its counts are
	// in by the time the cursor reports the end.
	if st := sys.Executor().Stats(); st.TuplesTransferred != 3 || st.SourceQueries != 1 {
		t.Errorf("stats after the trailer = %+v, want 3 tuples from 1 source query", st)
	}
}

// closeTracked is a fixedStream whose Close takes a while to publish.
type closeTracked struct {
	*fixedStream
	closed atomic.Bool
}

func (s *closeTracked) Close() error {
	time.Sleep(20 * time.Millisecond)
	s.closed.Store(true)
	return nil
}

type closeTrackedService struct {
	fixedService
	stream *closeTracked
}

func (f closeTrackedService) QueryStream(ctx context.Context, sql, receiver string, naive bool, lim planner.Limits) (server.RowStream, error) {
	rs, _ := f.fixedService.QueryStream(ctx, sql, receiver, naive, lim)
	f.stream.fixedStream = rs.(*fixedStream)
	return f.stream, nil
}

// TestStreamClosedBeforeTrailer: a streamed response is complete only
// once its row stream is closed — closing publishes the session's
// statistics — so a receiver that has read the stats or error trailer
// sends its next request to a server that already knows them.
func TestStreamClosedBeforeTrailer(t *testing.T) {
	rel := awkwardRelation()
	for _, name := range []string{"stats", "error"} {
		if name == "error" {
			rel.Tuples[4] = relalg.Tuple{relalg.StrV("x"), relalg.NumV(math.NaN()), relalg.BoolV(true)}
		}
		svc := closeTrackedService{fixedService: fixedService{rel: rel}, stream: &closeTracked{}}
		ts := httptest.NewServer(server.New(svc))
		conn, err := client.Open(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := conn.QueryStream(context.Background(), "SELECT 1", "", true, client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for cur.Next() {
		}
		if !svc.stream.closed.Load() {
			t.Errorf("%s trailer read before the stream was closed", name)
		}
		cur.Close()
		ts.Close()
	}
}

// TestStreamClientDisconnectCancelsQuery: a receiver that abandons the
// stream cancels the request context, which aborts the query session and
// releases the source blocked mid-transfer.
func TestStreamClientDisconnectCancelsQuery(t *testing.T) {
	sys, gw := gatedSystem(t, 50000)
	ts := httptest.NewServer(sys.Handler())
	defer ts.Close()
	conn, err := client.Open(ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	go gw.Allow(2)
	cur, err := conn.QueryStream(context.Background(), "SELECT nums.n FROM nums", "", true, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if !cur.Next() {
			t.Fatalf("row %d missing: %v", i, cur.Err())
		}
	}
	// Disconnect with the source blocked offering tuple 3. The server
	// notices the dead connection, cancels the session, and the gated
	// stream is released with ctx.Err().
	cur.Close()
	waitForStats(t, sys, func(st coin.ExecStats) bool {
		return st.TuplesTransferred == 2 && st.SourceQueries == 1
	})
}

// TestQueryTimeoutOverHTTP: a request-level timeout on the buffered
// endpoint surfaces as 504 with the deadline error, instead of hanging on
// the stuck source.
func TestQueryTimeoutOverHTTP(t *testing.T) {
	sys, _ := gatedSystem(t, 10) // gate never opens
	ts := httptest.NewServer(sys.Handler())
	defer ts.Close()

	body := `{"sql": "SELECT nums.n FROM nums", "naive": true, "timeout": "75ms"}`
	resp, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status = %d, want 504", resp.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "deadline") {
		t.Errorf("body = %s", buf.String())
	}
}

// TestMaxRowsOverHTTP: the max_rows governor truncates the buffered
// answer.
func TestMaxRowsOverHTTP(t *testing.T) {
	sys := coin.Figure2System()
	ts := httptest.NewServer(sys.Handler())
	defer ts.Close()
	conn, err := client.Open(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := conn.QueryCtx(context.Background(), "SELECT r2.cname FROM r2", "c2",
		client.Options{MaxRows: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("max_rows=1 returned %d rows", len(res.Rows))
	}
}

// TestGovernedNaiveQueryOverHTTP: the naive buffered path carries the
// timeout and max_rows governors too (a Timeout > 0 also routes the
// client off its 30s-capped default transport).
func TestGovernedNaiveQueryOverHTTP(t *testing.T) {
	sys := coin.Figure2System()
	ts := httptest.NewServer(sys.Handler())
	defer ts.Close()
	conn, err := client.Open(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := conn.QueryNaiveCtx(context.Background(), "SELECT r2.cname FROM r2",
		client.Options{Timeout: time.Minute, MaxRows: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("naive max_rows=1 returned %d rows", len(res.Rows))
	}
	if _, err := conn.QueryNaiveCtx(context.Background(), "SELECT r2.cname FROM r2",
		client.Options{Timeout: time.Nanosecond}); err == nil {
		t.Error("expired naive timeout succeeded")
	}
}

// TestBadGovernorValuesRejected: malformed timeout / max_rows are 400s.
func TestBadGovernorValuesRejected(t *testing.T) {
	sys := coin.Figure2System()
	ts := httptest.NewServer(sys.Handler())
	defer ts.Close()
	for _, body := range []string{
		`{"sql": "SELECT r2.cname FROM r2", "context": "c2", "timeout": "soon"}`,
		`{"sql": "SELECT r2.cname FROM r2", "context": "c2", "max_rows": -1}`,
		`{"sql": "SELECT r2.cname FROM r2", "context": "c2", "retry_budget": -1}`,
	} {
		resp, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestRetiredParallelismFieldIgnored: the retired "parallelism" request
// field is an unknown field now, which the server ignores, so a client
// that still sends it keeps getting answers.
func TestRetiredParallelismFieldIgnored(t *testing.T) {
	ts := httptest.NewServer(coin.Figure2System().Handler())
	defer ts.Close()
	body := `{"sql": "SELECT r2.cname FROM r2", "context": "c2", "naive": true, "parallelism": 4}`
	resp, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d, want 200", resp.StatusCode)
	}
}

// waitForStats polls the executor stats until ok or a deadline: a stream
// the receiver abandoned is closed when the server notices, which can lag
// the client's Close.
func waitForStats(t *testing.T, sys *coin.System, ok func(coin.ExecStats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := sys.Executor().Stats()
		if ok(st) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never settled: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// downFetcher fails every currency-page fetch with a transient fault.
type downFetcher struct{}

func (downFetcher) Get(ctx context.Context, url string) (string, error) {
	return "", wrapper.Transient(errInjectedDown)
}

var errInjectedDown = errors.New("currency site unreachable")

// TestPartialWireFormat pins the partial-results wire protocol on the
// raw JSON, not through the client: /api/query carries warnings in the
// response object, /api/query/stream carries them on the stats trailer
// (branches can degrade mid-stream, so they cannot ride the header).
func TestPartialWireFormat(t *testing.T) {
	sys := coin.Figure2SystemWith(downFetcher{})
	ts := httptest.NewServer(sys.Handler())
	defer ts.Close()

	post := func(path, body string) (*http.Response, string) {
		resp, err := ts.Client().Post(ts.URL+path, "application/json",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		return resp, b.String()
	}

	q := `"sql": ` + strconv.Quote(coin.PaperQ1) + `, "context": "c2"`

	// Fail-fast default: the query errors.
	resp, body := post("/api/query", `{`+q+`}`)
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("fail-fast query returned 200:\n%s", body)
	}

	// Partial: 200 with warnings naming the source on the response.
	resp, body = post("/api/query", `{`+q+`, "partial": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial query status %d:\n%s", resp.StatusCode, body)
	}
	var qr struct {
		Warnings []struct {
			Branch int    `json:"branch"`
			Source string `json:"source"`
			Error  string `json:"error"`
		} `json:"warnings"`
	}
	if err := json.Unmarshal([]byte(body), &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Warnings) == 0 {
		t.Fatalf("no warnings on partial response:\n%s", body)
	}
	for _, w := range qr.Warnings {
		if w.Source != "currencyweb" || w.Branch == 0 || w.Error == "" {
			t.Errorf("wire warning %+v", w)
		}
	}

	// Streaming: warnings ride the terminating stats record.
	resp, body = post("/api/query/stream", `{`+q+`, "partial": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial stream status %d:\n%s", resp.StatusCode, body)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	var last struct {
		Type     string `json:"type"`
		Warnings []struct {
			Source string `json:"source"`
		} `json:"warnings"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Type != "stats" || len(last.Warnings) == 0 {
		t.Fatalf("stream trailer = %s", lines[len(lines)-1])
	}
	if last.Warnings[0].Source != "currencyweb" {
		t.Errorf("trailer warning = %+v", last.Warnings[0])
	}
}
