package server_test

// Wire-format identity: the row codec changed who writes the bytes of the
// two result endpoints, not the bytes. The oracle here is the path they
// replaced — server.RelationResponse (boxing through valueJSON) fed to a
// json.Encoder — kept in this file for that purpose.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/coin"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/golden"
	"repro/internal/planner"
	"repro/internal/relalg"
	"repro/internal/server"
	"repro/internal/sqlparse"
	"repro/internal/wire"
)

// fixedService answers every query with one prepared relation, so a test
// chooses exactly what crosses the wire.
type fixedService struct {
	rel   *relalg.Relation
	med   *core.Mediation
	warns []planner.Warning
}

func (f fixedService) Mediate(string, string) (*core.Mediation, error) { return f.med, nil }
func (f fixedService) ExecuteWarnCtx(context.Context, *core.Mediation, planner.Limits) (*relalg.Relation, []planner.Warning, error) {
	return f.rel, f.warns, nil
}
func (f fixedService) QueryStream(_ context.Context, _, _ string, naive bool, _ planner.Limits) (server.RowStream, error) {
	s := &fixedStream{fixedService: f, rest: f.rel.Tuples}
	if naive {
		s.med = nil
	}
	return s, nil
}
func (fixedService) Plan(context.Context, string, string, bool, planner.Limits) (string, error) {
	return "", nil
}
func (fixedService) Contexts() []string                   { return nil }
func (fixedService) Relations() []string                  { return nil }
func (fixedService) Schema(string) (relalg.Schema, error) { return relalg.Schema{}, nil }

// fixedStream hands the relation out three rows at a time, so every
// answer of more than three rows crosses a batch boundary.
type fixedStream struct {
	fixedService
	rest []relalg.Tuple
}

func (s *fixedStream) Schema() relalg.Schema       { return s.rel.Schema }
func (s *fixedStream) Mediation() *core.Mediation  { return s.med }
func (s *fixedStream) Warnings() []planner.Warning { return s.warns }
func (s *fixedStream) Close() error                { return nil }
func (s *fixedStream) NextBatch(max int) ([]relalg.Tuple, error) {
	n := min(3, max, len(s.rest))
	batch := s.rest[:n]
	s.rest = s.rest[n:]
	return batch, nil
}

// oracleBody is the /api/query body as the boxing path wrote it.
func oracleBody(t *testing.T, f fixedService, naive bool) string {
	t.Helper()
	resp := server.RelationResponse(f.rel)
	if !naive && f.med != nil {
		resp.MediatedSQL, resp.Branches = f.med.SQL(), len(f.med.Branches)
	}
	if !naive {
		resp.Warnings = f.warns
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// oracleStream is the /api/query/stream body as the boxing path wrote it.
func oracleStream(t *testing.T, f fixedService, naive bool) string {
	t.Helper()
	resp := server.RelationResponse(f.rel)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	header := wire.StreamRecord{Type: "header", Columns: resp.Columns}
	if !naive && f.med != nil {
		header.MediatedSQL, header.Branches = f.med.SQL(), len(f.med.Branches)
	}
	recs := []wire.StreamRecord{header}
	for _, row := range resp.Rows {
		recs = append(recs, wire.StreamRecord{Type: "row", Values: row})
	}
	recs = append(recs, wire.StreamRecord{Type: "stats", Rows: len(resp.Rows), Warnings: f.warns})
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

func post(t *testing.T, h http.Handler, path string, naive bool) (int, http.Header, string) {
	t.Helper()
	body, _ := json.Marshal(wire.QueryRequest{SQL: "SELECT 1", Context: "c2", Naive: naive})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Header(), rec.Body.String()
}

// checkWire holds both endpoints to the oracle for one prepared answer.
func checkWire(t *testing.T, f fixedService) {
	t.Helper()
	h := server.New(f)
	for _, naive := range []bool{false, true} {
		code, hdr, got := post(t, h, "/api/query", naive)
		if want := oracleBody(t, f, naive); code != http.StatusOK || got != want {
			t.Errorf("/api/query naive=%v: status %d\n got  %s\n want %s", naive, code, got, want)
		}
		if cl := hdr.Get("Content-Length"); cl != "" && cl != strconv.Itoa(len(got)) {
			t.Errorf("/api/query: Content-Length %s for a %d-byte body", cl, len(got))
		}
		_, _, got = post(t, h, "/api/query/stream", naive)
		if want := oracleStream(t, f, naive); got != want {
			t.Errorf("/api/query/stream naive=%v:\n got  %s\n want %s", naive, got, want)
		}
	}
}

// corpusAnswer runs one golden-corpus entry the way internal/golden does
// and returns what the server would be handed for it.
func corpusAnswer(t *testing.T, q golden.Query) fixedService {
	t.Helper()
	ctx := context.Background()
	if q.Mode == "engine" {
		fx, err := golden.NewFixture(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer fx.Close()
		stmt, err := sqlparse.Parse(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		sess := fx.Ex.NewSession(ctx, planner.Limits{})
		defer sess.Close()
		rel, err := fx.Ex.ExecuteSession(sess, stmt)
		if err != nil {
			t.Fatal(err)
		}
		return fixedService{rel: rel}
	}
	partial := q.Mode == "mediate-partial"
	sys := coin.Figure2System()
	if partial {
		sys = coin.Figure2SystemWith(downFetcher{})
	}
	med, err := sys.Mediate(q.SQL, q.Receiver)
	if err != nil {
		t.Fatal(err)
	}
	rel, warns, err := sys.ExecuteWarnCtx(ctx, med, coin.QueryOptions{PartialResults: partial})
	if err != nil {
		t.Fatal(err)
	}
	return fixedService{rel: rel, med: med, warns: warns}
}

func TestWireBytesUnchangedOnGoldenCorpus(t *testing.T) {
	t.Chdir("../golden") // its fixture opens testdata/files relative to the package
	corpus, err := golden.LoadCorpus("testdata/queries")
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) < 32 {
		t.Fatalf("corpus has %d queries, want the 32 of internal/golden", len(corpus))
	}
	for _, q := range corpus {
		t.Run(q.Name, func(t *testing.T) { checkWire(t, corpusAnswer(t, q)) })
	}
}

// awkwardRelation carries what the corpus does not: every escape class,
// number formats on both sides of each cutoff, NULLs and bools, more rows
// than one batch.
func awkwardRelation() *relalg.Relation {
	rel := relalg.NewRelation("awkward", relalg.NewSchema(
		relalg.Column{Name: `na"me<`, Type: relalg.KindString},
		relalg.Column{Name: "v", Type: relalg.KindNumber},
		relalg.Column{Name: "ok", Type: relalg.KindBool},
	))
	names := []string{"NTT", "<b>&amp;</b>", `q"uo\te`, "tab\tnl\n", "\x00\x1f", "line\u2028para\u2029", "bad\xffutf8\xc0", "日本", ""}
	nums := []float64{9600000, 0, math.Copysign(0, -1), 1e21, 1e-7, 0.1, -2.5e-9, 1 << 53, 123456.789}
	for i, s := range names {
		rel.Tuples = append(rel.Tuples, relalg.Tuple{relalg.StrV(s), relalg.NumV(nums[i]), relalg.BoolV(i%2 == 0)})
	}
	rel.Tuples = append(rel.Tuples, relalg.Tuple{relalg.Null, relalg.Null, relalg.Null})
	return rel
}

func TestWireBytesUnchangedOnAwkwardAnswers(t *testing.T) {
	sys := coin.Figure2System()
	med, err := sys.Mediate(coin.PaperQ1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	warns := []planner.Warning{{Branch: 2, Source: "currency<web>", Message: "site \"down\""}}
	empty := relalg.NewRelation("empty", awkwardRelation().Schema)
	// Zero columns: "columns" is null, a buffered row is [] and a streamed
	// row record has no "values" at all (omitempty).
	bare := relalg.NewRelation("bare", relalg.Schema{})
	bare.Tuples = []relalg.Tuple{{}, {}}
	for name, f := range map[string]fixedService{
		"awkward":          {rel: awkwardRelation()},
		"awkward-mediated": {rel: awkwardRelation(), med: med, warns: warns},
		"empty":            {rel: empty, med: med},
		"zero-columns":     {rel: bare},
	} {
		t.Run(name, func(t *testing.T) { checkWire(t, f) })
	}
}

// TestNonFiniteAnswerIsAClassifiedError: a NaN or ±Inf in an answer used to
// surface as HTTP 200 with an empty body (the status was already out when
// encoding/json failed) and as a stream that just stopped. It is now 422
// with the column named, and on the stream the rows before it followed by
// an error trailer — through the client, a real message instead of EOF.
func TestNonFiniteAnswerIsAClassifiedError(t *testing.T) {
	ts := httptest.NewServer(coin.Figure2System().Handler())
	defer ts.Close()
	conn, err := client.Open(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	huge := "1" + strings.Repeat("0", 200)
	sql := "SELECT r2.cname, r2.expenses * " + huge + " * " + huge + " FROM r2"
	ctx := context.Background()

	resp, err := ts.Client().Post(ts.URL+"/api/query", "application/json",
		strings.NewReader(`{"sql":"`+sql+`","naive":true}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var e wire.ErrorResponse
	if resp.StatusCode != http.StatusUnprocessableEntity || json.Unmarshal(body, &e) != nil || !strings.Contains(e.Error, "+Inf") {
		t.Errorf("/api/query: status %d body %q, want 422 naming +Inf", resp.StatusCode, body)
	}
	if _, err := conn.QueryNaiveCtx(ctx, sql, client.Options{}); err == nil ||
		!strings.Contains(err.Error(), "+Inf") || !strings.Contains(err.Error(), "row 1, column") {
		t.Errorf("QueryNaiveCtx err = %v, want the row and column of the +Inf", err)
	}
	cur, err := conn.QueryStream(ctx, sql, "", true, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if cur.Next() {
		t.Errorf("streamed a row: %v", cur.Row())
	}
	if err := cur.Err(); err == nil || !strings.Contains(err.Error(), "+Inf") {
		t.Errorf("stream err = %v, want the +Inf named", err)
	}

	// Mid-answer: the rows before the bad one are delivered on the stream,
	// none on the buffered endpoint.
	rel := awkwardRelation()
	rel.Tuples[4] = relalg.Tuple{relalg.StrV("x"), relalg.NumV(math.NaN()), relalg.BoolV(true)}
	fs := httptest.NewServer(server.New(fixedService{rel: rel}))
	defer fs.Close()
	if conn, err = client.Open(fs.URL); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.QueryNaiveCtx(ctx, "SELECT 1", client.Options{}); err == nil ||
		!strings.Contains(err.Error(), `row 5, column "v": NaN`) {
		t.Errorf("QueryNaiveCtx err = %v, want row 5, column v, NaN", err)
	}
	if cur, err = conn.QueryStream(ctx, "SELECT 1", "", true, client.Options{}); err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for cur.Next() {
	}
	if err := cur.Err(); cur.Rows() != 4 || err == nil || !strings.Contains(err.Error(), `row 5, column "v": NaN`) {
		t.Errorf("stream delivered %d rows, err = %v; want 4 rows then row 5, column v, NaN", cur.Rows(), err)
	}
}
