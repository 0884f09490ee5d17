// Package server implements the receiver-side access layer of Figure 1:
// the prototype tunneled an ODBC-family protocol inside HTTP so that "any
// application with basic capabilities for Internet socket based
// communication" could reach the mediation services, and shipped an HTML
// Query-By-Example form on top. This package provides the same faces,
// made safe for real traffic: every query runs inside a session bound to
// the HTTP request's context (a disconnected receiver aborts the query
// all the way down to the source fetches) and governable by per-request
// limits.
//
//	POST /api/query         {"sql", "context", "timeout"?, "max_rows"?} -> columns+rows JSON
//	POST /api/query/stream  same body -> NDJSON: header record, one record
//	                        per row as produced, trailing stats/error record
//	POST /api/mediate       {"sql", "context"} -> mediated SQL text
//	POST /api/explain       same body as /api/query, "analyze"? -> plan text
//	GET  /api/schema        -> relations, their schemas and sources, contexts
//	GET  /qbe               -> the HTML QBE form (submits to /qbe/run)
//
// The records are internal/wire's; internal/client is the Go counterpart of
// the prototype's ODBC driver.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/planner"
	"repro/internal/relalg"
	"repro/internal/wire"
)

// RowStream is an open, incrementally-consumable query answer; the
// /api/query/stream handler drains it onto the wire row by row.
// coin.RowStream implements it.
type RowStream interface {
	// Schema describes the rows.
	Schema() relalg.Schema
	// Mediation returns the mediated query, or nil for a naive stream.
	Mediation() *core.Mediation
	// NextBatch returns the next block of rows (1..max; nil at end, or
	// the terminal error). The slice is valid until the next call. The
	// stream handler drains blocks so encode+flush overhead is paid per
	// batch, not per row.
	NextBatch(max int) ([]relalg.Tuple, error)
	// Warnings returns the degraded-branch warnings of a partial-results
	// stream accumulated so far (nil otherwise); final once NextBatch
	// returned no rows.
	Warnings() []planner.Warning
	// Close releases the stream and its query session, publishing the
	// session's statistics; idempotent.
	Close() error
}

// Service is what the server needs from the mediator installation;
// repro/coin.System (through its Handler adapter) implements it. Every
// query method takes the request context and per-query limits, so the
// server can tie query lifetimes to receiver connections. Naive answers,
// buffered or streamed, come from QueryStream; mediated buffered answers
// from Mediate and ExecuteWarnCtx.
type Service interface {
	Mediate(sql, receiver string) (*core.Mediation, error)
	ExecuteWarnCtx(ctx context.Context, med *core.Mediation, opts planner.Limits) (*relalg.Relation, []planner.Warning, error)
	QueryStream(ctx context.Context, sql, receiver string, naive bool, opts planner.Limits) (RowStream, error)
	// Plan renders the EXPLAIN text of sql, or with analyze set the
	// EXPLAIN ANALYZE text of an executed run, under opts.
	Plan(ctx context.Context, sql, receiver string, analyze bool, opts planner.Limits) (string, error)
	Contexts() []string
	Relations() []string
	Schema(relation string) (relalg.Schema, error)
}

// columnInfos renders a schema as the wire's column list (nil for a
// schema with no columns).
func columnInfos(schema relalg.Schema) []wire.ColumnInfo {
	var cols []wire.ColumnInfo
	for _, c := range schema.Columns {
		cols = append(cols, wire.ColumnInfo{Name: c.Name, Type: c.Type.String()})
	}
	return cols
}

// New builds the HTTP handler.
func New(svc Service) http.Handler {
	s := &srv{svc: svc}
	mux := http.NewServeMux()
	mux.HandleFunc("/api/query", s.handleQuery)
	mux.HandleFunc("/api/query/stream", s.handleQueryStream)
	mux.HandleFunc("/api/mediate", s.handleMediate)
	mux.HandleFunc("/api/explain", s.handleExplain)
	mux.HandleFunc("/api/schema", s.handleSchema)
	mux.HandleFunc("/qbe", s.handleQBE)
	mux.HandleFunc("/qbe/run", s.handleQBERun)
	mux.HandleFunc("/", s.handleRoot)
	return mux
}

type srv struct {
	svc Service
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// statusFor maps a query failure to an HTTP status: deadline overruns are
// gateway timeouts, everything else (mediation errors, governor limits,
// receiver cancellation noticed server-side) is unprocessable.
func statusFor(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return http.StatusUnprocessableEntity
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, wire.ErrorResponse{Error: err.Error()})
}

// maxRequestBytes bounds a request body: the decoder never buffers more
// of a hostile (or mistaken) receiver's JSON than this.
const maxRequestBytes = 1 << 20

func (s *srv) decode(w http.ResponseWriter, r *http.Request, req *wire.QueryRequest) bool {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("server: POST required"))
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("server: request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeErr(w, http.StatusBadRequest, fmt.Errorf("server: bad request body: %v", err))
		return false
	}
	if strings.TrimSpace(req.SQL) == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("server: sql is required"))
		return false
	}
	return true
}

func (s *srv) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req wire.QueryRequest
	if !s.decode(w, r, &req) {
		return
	}
	opts, err := req.Limits()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	rel, med, warns, err := s.answer(r.Context(), &req, opts)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	// The whole body is encoded before the status line goes out, so an
	// answer that cannot be encoded is still a classified error.
	buf := wireBufs.Get().(*[]byte)
	defer wireBufs.Put(buf)
	body, err := appendQueryBody((*buf)[:0], rel, med, warns)
	*buf = body
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // a failed write is a receiver that left
}

// answer computes a buffered answer. A naive one is the naive stream
// drained; a mediated one is mediated once and executed, rather than
// streamed, so the answer is collected presized from the plan's row
// estimate.
func (s *srv) answer(ctx context.Context, req *wire.QueryRequest, opts planner.Limits) (*relalg.Relation, *core.Mediation, []planner.Warning, error) {
	if req.Naive {
		rs, err := s.svc.QueryStream(ctx, req.SQL, req.Context, true, opts)
		if err != nil {
			return nil, nil, nil, err
		}
		defer rs.Close()
		rel := &relalg.Relation{Schema: rs.Schema()}
		for {
			batch, err := rs.NextBatch(relalg.DefaultBatchSize)
			if err != nil || len(batch) == 0 {
				return rel, nil, nil, err
			}
			rel.Tuples = append(rel.Tuples, batch...)
		}
	}
	med, err := s.svc.Mediate(req.SQL, req.Context)
	if err != nil {
		return nil, nil, nil, err
	}
	rel, warns, err := s.svc.ExecuteWarnCtx(ctx, med, opts)
	return rel, med, warns, err
}

// wireBufs recycles the encode buffers of the two result endpoints: a
// handler takes one for the length of its request and hands it back, grown,
// once its last Write has returned (Write does not retain its argument).
// The pool drops them at the second GC after their last use.
var wireBufs = sync.Pool{New: func() any { return new([]byte) }}

// unencodable names the row and column of a value AppendRow refused.
func unencodable(err error, schema relalg.Schema, row int) error {
	var nf *wire.NonFiniteError
	if errors.As(err, &nf) && nf.Col < len(schema.Columns) {
		return fmt.Errorf("server: row %d, column %q: %w", row, schema.Columns[nf.Col].Name, err)
	}
	return fmt.Errorf("server: row %d: %w", row, err)
}

// appendQueryBody appends the /api/query response for rel — the bytes
// json.Encoder wrote for wire.QueryResponse, field for field, trailing
// newline included — reading the rows straight from rel.Tuples.
func appendQueryBody(dst []byte, rel *relalg.Relation, med *core.Mediation, warns []planner.Warning) ([]byte, error) {
	dst = append(dst, `{"columns":`...)
	dst = appendColumns(dst, rel.Schema)
	dst = append(dst, `,"rows":[`...)
	for i, t := range rel.Tuples {
		if i > 0 {
			dst = append(dst, ',')
		}
		mark := len(dst)
		var err error
		if dst, err = wire.AppendRow(dst, t); err != nil {
			return dst, unencodable(err, rel.Schema, i+1)
		}
		if i == 0 {
			dst = reserveRows(dst, len(dst)-mark+1, len(rel.Tuples)-1)
		}
	}
	dst = append(dst, ']')
	if med != nil {
		if sql := med.SQL(); sql != "" {
			dst = wire.AppendString(append(dst, `,"mediatedSQL":`...), sql)
		}
		if n := len(med.Branches); n > 0 {
			dst = strconv.AppendInt(append(dst, `,"branches":`...), int64(n), 10)
		}
	}
	if len(warns) > 0 {
		w, err := json.Marshal(warns)
		if err != nil {
			return dst, err
		}
		dst = append(append(dst, `,"warnings":`...), w...)
	}
	return append(dst, "}\n"...), nil
}

// appendColumns appends a schema as the JSON of []wire.ColumnInfo (null when
// there are no columns, as the nil slice encodes).
func appendColumns(dst []byte, schema relalg.Schema) []byte {
	if len(schema.Columns) == 0 {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, c := range schema.Columns {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"name":`...)
		dst = wire.AppendString(dst, c.Name)
		dst = append(dst, `,"type":`...)
		dst = wire.AppendString(dst, c.Type.String())
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// handleQueryStream is the streaming wire path: it opens a governed row
// stream bound to the request context and writes NDJSON incrementally —
// header first, each row as the iterator tree yields it (flushed so the
// receiver sees the first row before the sources finish), then a trailing
// stats or error record. A receiver that disconnects cancels r.Context(),
// which aborts the query's source fetches mid-stream.
func (s *srv) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	var req wire.QueryRequest
	if !s.decode(w, r, &req) {
		return
	}
	opts, err := req.Limits()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	rs, err := s.svc.QueryStream(r.Context(), req.SQL, req.Context, req.Naive, opts)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	defer rs.Close()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	header := wire.StreamRecord{Type: "header", Columns: columnInfos(rs.Schema())}
	if med := rs.Mediation(); med != nil {
		header.MediatedSQL = med.SQL()
		header.Branches = len(med.Branches)
	}
	if err := enc.Encode(header); err != nil {
		return
	}
	flush()

	// The warnings ride the trailer: branches can degrade mid-stream, so
	// only after the last row is the set final. The stream is closed before
	// the trailer goes out: closing publishes the session's statistics, and
	// a receiver that has read the trailer may at once send a request whose
	// plan must already see them.
	trailer := func(rec wire.StreamRecord) {
		rec.Warnings = rs.Warnings()
		rs.Close()
		_ = enc.Encode(rec)
		flush()
	}
	buf := wireBufs.Get().(*[]byte)
	defer wireBufs.Put(buf)
	rows := 0
	for {
		// One write and one flush per batch: a gated or trickling source
		// yields one-row batches (each row still reaches the receiver as it
		// arrives), while a bulk source pays them once per 1024 rows.
		batch, err := rs.NextBatch(relalg.DefaultBatchSize)
		if err == nil && len(batch) == 0 {
			break
		}
		if err == nil {
			var n int
			*buf, n, err = appendRowRecords((*buf)[:0], batch)
			rows += n
			if _, werr := w.Write(*buf); werr != nil {
				return // receiver gone; rs.Close (deferred) cancels the session
			}
			if err != nil {
				// The rows before the bad one went out; the trailer says why
				// the stream stops here.
				err = unencodable(err, rs.Schema(), rows+1)
			}
		}
		if err != nil {
			trailer(wire.StreamRecord{Type: "error", Rows: rows, Error: err.Error()})
			return
		}
		flush()
	}
	trailer(wire.StreamRecord{Type: "stats", Rows: rows})
}

// appendRowRecords appends one NDJSON "row" record per tuple — the line
// json.Encoder wrote for wire.StreamRecord{Type: "row", Values: …} — and
// stops at the first tuple AppendRow refuses, returning the records
// complete so far and their number.
func appendRowRecords(dst []byte, batch []relalg.Tuple) ([]byte, int, error) {
	for n, t := range batch {
		mark := len(dst)
		dst = append(dst, `{"type":"row"`...)
		if len(t) > 0 { // Values is omitempty: a zero-column row goes out without it
			var err error
			if dst, err = wire.AppendRow(append(dst, `,"values":`...), t); err != nil {
				return dst[:mark], n, err
			}
		}
		dst = append(dst, "}\n"...)
		if n == 0 {
			dst = reserveRows(dst, len(dst)-mark, len(batch)-1)
		}
	}
	return dst, len(batch), nil
}

// reserveRows makes room in a cold buffer for the n rows still to come once
// the first has been encoded in size bytes: append's own growth would
// re-copy a 10,000-row answer five times over. Later rows are taken to be
// an eighth longer than the first, and a first row is only a guess, so
// what it may reserve is bounded; a warm buffer is left as it is.
func reserveRows(dst []byte, size, n int) []byte {
	return slices.Grow(dst, min(size*n+size*n/8, 1<<20))
}

func (s *srv) handleMediate(w http.ResponseWriter, r *http.Request) {
	var req wire.QueryRequest
	if !s.decode(w, r, &req) {
		return
	}
	med, err := s.svc.Mediate(req.SQL, req.Context)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.MediateResponse{MediatedSQL: med.SQL(), Branches: len(med.Branches)})
}

func (s *srv) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req wire.QueryRequest
	if !s.decode(w, r, &req) {
		return
	}
	opts, err := req.Limits()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	plan, err := s.svc.Plan(r.Context(), req.SQL, req.Context, req.Analyze, opts)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, wire.ExplainResponse{Plan: plan})
}

func (s *srv) handleSchema(w http.ResponseWriter, r *http.Request) {
	resp := wire.SchemaResponse{Relations: map[string][]wire.ColumnInfo{}, Contexts: s.svc.Contexts()}
	for _, rel := range s.svc.Relations() {
		schema, err := s.svc.Schema(rel)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		resp.Relations[rel] = columnInfos(schema)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *srv) handleRoot(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	http.Redirect(w, r, "/qbe", http.StatusFound)
}

var qbeTemplate = template.Must(template.New("qbe").Parse(`<!DOCTYPE html>
<html><head><title>COIN Query-By-Example</title></head>
<body>
<h1>Context Interchange Mediator — QBE</h1>
<form action="/qbe/run" method="GET">
<p>Receiver context:
<select name="context">{{range .Contexts}}<option>{{.}}</option>{{end}}</select>
</p>
<p>SQL:<br>
<textarea name="sql" rows="6" cols="80">{{.SQL}}</textarea></p>
<p><label><input type="checkbox" name="naive" value="1" {{if .Naive}}checked{{end}}> naive (skip mediation)</label></p>
<p><input type="submit" value="Run"></p>
</form>
<h2>Relations</h2>
<ul>{{range $rel, $cols := .Relations}}<li><b>{{$rel}}</b>({{range $i, $c := $cols}}{{if $i}}, {{end}}{{$c.Name}}:{{$c.Type}}{{end}})</li>{{end}}</ul>
{{if .MediatedSQL}}<h2>Mediated query</h2><pre>{{.MediatedSQL}}</pre>{{end}}
{{if .Derivation}}<h2>Derivation</h2><pre>{{.Derivation}}</pre>{{end}}
{{if .Columns}}
<h2>Answer</h2>
<table border="1"><tr>{{range .Columns}}<th>{{.Name}}</th>{{end}}</tr>
{{range .Rows}}<tr>{{range .}}<td>{{.}}</td>{{end}}</tr>{{end}}
</table>
{{end}}
{{if .Error}}<p style="color:red">{{.Error}}</p>{{end}}
</body></html>`))

type qbePage struct {
	Contexts    []string
	Relations   map[string][]wire.ColumnInfo
	SQL         string
	Naive       bool
	MediatedSQL string
	Derivation  string
	Columns     []wire.ColumnInfo
	Rows        []relalg.Tuple // cells print through relalg.Value's String
	Error       string
}

func (s *srv) qbePage() qbePage {
	page := qbePage{Contexts: s.svc.Contexts(), Relations: map[string][]wire.ColumnInfo{}}
	for _, rel := range s.svc.Relations() {
		schema, err := s.svc.Schema(rel)
		if err != nil {
			continue
		}
		page.Relations[rel] = columnInfos(schema)
	}
	return page
}

func (s *srv) handleQBE(w http.ResponseWriter, r *http.Request) {
	page := s.qbePage()
	page.SQL = "SELECT rl.cname, rl.revenue FROM r1 rl, r2\nWHERE rl.cname = r2.cname\nAND rl.revenue > r2.expenses"
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = qbeTemplate.Execute(w, page)
}

func (s *srv) handleQBERun(w http.ResponseWriter, r *http.Request) {
	page := s.qbePage()
	page.SQL = r.URL.Query().Get("sql")
	page.Naive = r.URL.Query().Get("naive") == "1"
	req := wire.QueryRequest{SQL: page.SQL, Context: r.URL.Query().Get("context"), Naive: page.Naive}
	rel, med, _, err := s.answer(r.Context(), &req, planner.Limits{})
	if med != nil {
		page.MediatedSQL = med.SQL()
		page.Derivation = med.ExplainText()
	}
	if err != nil {
		page.Error = err.Error()
	} else {
		page.Columns, page.Rows = columnInfos(rel.Schema), rel.Tuples
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = qbeTemplate.Execute(w, page)
}
