// Package client is the receiver-side API of the prototype — the
// counterpart of its ODBC driver. It speaks the HTTP-tunneled protocol of
// internal/server, whose records it shares through internal/wire: connect
// (schema handshake), schema inspection, query in a named receiver context
// (buffered or streamed row by row over the NDJSON wire path), plan, and
// mediate-only. Queries take a context and per-query limits, so a receiver
// can cancel or bound in-flight work. Any application with socket access
// can use it; cmd/coinquery is one.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/planner"
	"repro/internal/wire"
)

// Options bound one query: the governor limits of the server-side session,
// carried in the request's fields (see wire.NewQueryRequest). MaxTuples
// has no field on the wire, so a query with a nonzero one is refused
// before it is sent. The zero value is ungoverned and fail-fast.
type Options = planner.Limits

// Conn is an open connection to a mediation server.
type Conn struct {
	base   string
	client *http.Client
	// streamClient carries no whole-response timeout: a streamed result
	// may legitimately outlive 30 seconds, and the caller's context (plus
	// the server-side session timeout) bounds the body instead. Its
	// transport still bounds the connect/header phase, so a half-dead
	// server cannot hang a stream before it starts.
	streamClient *http.Client
	schema       wire.SchemaResponse
}

// Open connects to a server and performs the schema handshake.
func Open(baseURL string) (*Conn, error) {
	streamTransport := http.DefaultTransport
	if t, ok := streamTransport.(*http.Transport); ok {
		t = t.Clone()
		t.ResponseHeaderTimeout = 30 * time.Second
		streamTransport = t
	}
	c := &Conn{
		base:         strings.TrimRight(baseURL, "/"),
		client:       &http.Client{Timeout: 30 * time.Second},
		streamClient: &http.Client{Transport: streamTransport},
	}
	if err := c.refreshSchema(); err != nil {
		return nil, fmt.Errorf("client: connecting to %s: %w", baseURL, err)
	}
	return c, nil
}

func (c *Conn) refreshSchema() error {
	resp, err := c.client.Get(c.base + "/api/schema")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("schema request failed: %s", resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(&c.schema)
}

// Contexts lists the receiver contexts the server knows.
func (c *Conn) Contexts() []string { return c.schema.Contexts }

// Relations lists the queryable relations.
func (c *Conn) Relations() []string {
	out := make([]string, 0, len(c.schema.Relations))
	for r := range c.schema.Relations {
		out = append(out, r)
	}
	slices.Sort(out)
	return out
}

// Columns returns a relation's columns as name/type pairs.
func (c *Conn) Columns(relation string) ([]wire.ColumnInfo, bool) {
	cols, ok := c.schema.Relations[relation]
	return cols, ok
}

// Result is a query answer.
type Result struct {
	Columns     []wire.ColumnInfo
	Rows        [][]interface{}
	MediatedSQL string
	Branches    int
	// Warnings lists mediation branches the server dropped under
	// Options.PartialResults; empty when the answer is complete.
	Warnings []planner.Warning
}

// String renders the result as an aligned table.
func (r *Result) String() string {
	var b strings.Builder
	widths := make([]int, len(r.Columns))
	header := make([]string, len(r.Columns))
	for i, c := range r.Columns {
		header[i] = c.Name
		widths[i] = len(c.Name)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for i, v := range row {
			cells[ri][i] = fmt.Sprintf("%v", v)
			if len(cells[ri][i]) > widths[i] {
				widths[i] = len(cells[ri][i])
			}
		}
	}
	writeRow := func(row []string) {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			for p := len(cell); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}

// governedTimeoutGrace pads the client-side deadline of a governed query
// beyond the server-side session timeout, leaving room for the error
// response (or the result transfer) to make it back.
const governedTimeoutGrace = 10 * time.Second

// postQuery posts a governed query: with an explicit Options.Timeout the
// server's session deadline is authoritative, so the request runs on the
// un-timed client under a context deadline of timeout+grace (the default
// client's fixed 30s whole-response timeout would otherwise cut off
// legitimately long governed queries). Without one, the default client's
// 30s cap applies as before.
func (c *Conn) postQuery(ctx context.Context, path string, req wire.QueryRequest, opts Options, out interface{}) error {
	if opts.Timeout > 0 {
		dctx, cancel := context.WithTimeout(ctx, opts.Timeout+governedTimeoutGrace)
		defer cancel()
		return c.postWith(dctx, c.streamClient, path, req, out)
	}
	return c.postWith(ctx, c.client, path, req, out)
}

func (c *Conn) postWith(ctx context.Context, hc *http.Client, path string, req wire.QueryRequest, out interface{}) error {
	resp, err := c.send(ctx, hc, path, req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// The body is read whole into a recycled buffer (sized up front when
	// the server declared a plausible length) and decoded from there; every
	// decoded value is a copy, so the buffer can go back.
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer bodyBufs.Put(buf)
	buf.Reset()
	if n := resp.ContentLength; n > 0 && n < maxPresizeBytes {
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("client: %s: reading response: %w", path, err)
	}
	if q, ok := out.(*wire.QueryResponse); ok {
		return decodeQueryBody(buf.Bytes(), q)
	}
	return json.Unmarshal(buf.Bytes(), out)
}

// send posts req to path and returns the response if it is a 200; any
// other status is returned as the server's error, the body closed.
func (c *Conn) send(ctx context.Context, hc *http.Client, path string, req wire.QueryRequest) (*http.Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("client: %s: %w", path, err)
	}
	if resp.StatusCode == http.StatusOK {
		return resp, nil
	}
	defer resp.Body.Close()
	var e wire.ErrorResponse
	if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
		return nil, fmt.Errorf("client: %s", e.Error)
	}
	return nil, fmt.Errorf("client: %s failed: %s", path, resp.Status)
}

var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPresizeBytes bounds what a declared Content-Length may reserve before
// a byte of the body has arrived; longer bodies grow as they are read.
const maxPresizeBytes = 16 << 20

// decodeQueryBody decodes a /api/query body, overwriting it as it goes. A
// body laid out as the server writes it — {"columns":…,"rows":[…] and
// then the optional fields — has its rows read by wire.ParseRow, one
// call per row, and only the few bytes around them by encoding/json; the
// 10,000-row answer is then scanned once, not three times, and never
// walked by reflection. Any other layout (another field order, escaped
// strings, a pretty-printing proxy) is decoded by encoding/json whole, as
// every body used to be.
func decodeQueryBody(body []byte, out *wire.QueryResponse) error {
	const head, rowsKey = `{"columns":`, `,"rows":`
	// Unmarshal takes exactly one value: if it accepts what lies between
	// the two keys, "rows" is the object's second key and not text nested
	// deeper (an unescaped quote cannot occur inside a string).
	if i := bytes.Index(body, []byte(rowsKey)); i >= len(head) && bytes.HasPrefix(body, []byte(head)) &&
		json.Unmarshal(body[len(head):i], &out.Columns) == nil {
		if rows, rest, ok := parseRows(body[i+len(rowsKey):]); ok {
			// What follows the rows is `,"key":…}` or `}`: with the array's
			// closing bracket turned into an opening brace (and the comma
			// blanked) it is an object of its own.
			tail := body[len(body)-len(rest)-1:]
			tail[0] = '{'
			if len(tail) > 1 && tail[1] == ',' {
				tail[1] = ' '
			}
			out.Rows = rows
			return json.Unmarshal(tail, out)
		}
	}
	*out = wire.QueryResponse{}
	return json.Unmarshal(body, out)
}

// parseRows reads the array of rows at the front of b with wire.ParseRow
// and returns what follows its closing bracket.
func parseRows(b []byte) (rows [][]interface{}, rest []byte, ok bool) {
	if len(b) < 2 || b[0] != '[' {
		return nil, nil, false
	}
	if b[1] == ']' {
		return [][]interface{}{}, b[2:], true
	}
	// One slot per "],[" plus one: exact unless a string value contains
	// that text, and then only generous.
	rows = make([][]interface{}, 0, bytes.Count(b, []byte("],["))+1)
	width := 0
	for b[0] != ']' {
		row, rest, ok := wire.ParseRow(b[1:], width)
		if !ok || len(rest) == 0 || rest[0] != ',' && rest[0] != ']' {
			return nil, nil, false
		}
		rows, width, b = append(rows, row), len(row), rest
	}
	return rows, b[1:], true
}

// QueryCtx mediates and executes SQL under ctx and opts: canceling ctx
// abandons the request (the server then cancels the query's session), and
// opts carry the server-side timeout and row cap.
func (c *Conn) QueryCtx(ctx context.Context, sql, context_ string, opts Options) (*Result, error) {
	return c.query(ctx, sql, context_, false, opts)
}

// QueryNaiveCtx executes SQL without mediation under ctx and opts.
func (c *Conn) QueryNaiveCtx(ctx context.Context, sql string, opts Options) (*Result, error) {
	return c.query(ctx, sql, "", true, opts)
}

func (c *Conn) query(ctx context.Context, sql, context_ string, naive bool, opts Options) (*Result, error) {
	req, err := wire.NewQueryRequest(sql, context_, naive, opts)
	if err != nil {
		return nil, err
	}
	var resp wire.QueryResponse
	if err := c.postQuery(ctx, "/api/query", req, opts, &resp); err != nil {
		return nil, err
	}
	return &Result{Columns: resp.Columns, Rows: resp.Rows, MediatedSQL: resp.MediatedSQL,
		Branches: resp.Branches, Warnings: resp.Warnings}, nil
}

// QueryStream mediates and executes SQL over the NDJSON wire path,
// returning a cursor that yields rows as the server produces them — the
// first row is available before the query finishes. Always Close the
// cursor; canceling ctx aborts the stream (and with it the server-side
// query session). Set naive to skip mediation.
func (c *Conn) QueryStream(ctx context.Context, sql, context_ string, naive bool, opts Options) (*RowCursor, error) {
	req, err := wire.NewQueryRequest(sql, context_, naive, opts)
	if err != nil {
		return nil, err
	}
	resp, err := c.send(ctx, c.streamClient, "/api/query/stream", req)
	if err != nil {
		return nil, err
	}
	cur := &RowCursor{resp: resp, br: bufio.NewReaderSize(resp.Body, streamBufBytes)}
	var header wire.StreamRecord
	line, err := cur.readLine()
	if err == nil {
		err = json.Unmarshal(line, &header)
	}
	if err != nil || header.Type != "header" {
		resp.Body.Close()
		if err == nil {
			err = fmt.Errorf("client: stream began with %q record, want header", header.Type)
		}
		return nil, fmt.Errorf("client: reading stream header: %w", err)
	}
	cur.columns = header.Columns
	cur.mediatedSQL = header.MediatedSQL
	cur.branches = header.Branches
	return cur, nil
}

// RowCursor iterates a streamed query answer row by row as records
// arrive on the wire, in the style of an ODBC cursor over an open
// network result set.
type RowCursor struct {
	resp        *http.Response
	br          *bufio.Reader
	columns     []wire.ColumnInfo
	mediatedSQL string
	branches    int

	cur      []interface{}
	rows     int
	err      error
	warnings []planner.Warning
	done     bool
	closed   bool
}

// Columns describes the result columns (from the stream header).
func (c *RowCursor) Columns() []wire.ColumnInfo { return c.columns }

// MediatedSQL returns the mediated form of the query ("" for naive).
func (c *RowCursor) MediatedSQL() string { return c.mediatedSQL }

// Branches returns the mediation's branch count (0 for naive).
func (c *RowCursor) Branches() int { return c.branches }

// Next advances to the next row, blocking until the server delivers one;
// it returns false at end of stream or on error (check Err).
func (c *RowCursor) Next() bool {
	if c.done || c.closed {
		return false
	}
	line, err := c.readLine()
	if err == nil {
		if row, ok := rowValues(line, len(c.columns)); ok {
			c.cur = row
			c.rows++
			return true
		}
	}
	var rec wire.StreamRecord
	if err == nil {
		err = json.Unmarshal(line, &rec)
	}
	if err != nil {
		c.err = fmt.Errorf("client: reading stream: %w", err)
		c.end()
		return false
	}
	switch rec.Type {
	case "row":
		c.cur = rec.Values
		c.rows++
		return true
	case "stats":
		c.warnings = rec.Warnings
		c.end()
		return false
	case "error":
		c.err = fmt.Errorf("client: %s", rec.Error)
		c.warnings = rec.Warnings
		c.end()
		return false
	default:
		c.err = fmt.Errorf("client: unexpected stream record %q", rec.Type)
		c.end()
		return false
	}
}

// streamBufBytes sizes the cursor's read buffer: a 1024-row batch of the
// server's is about this much, so a bulk stream costs a read per batch.
const streamBufBytes = 32 << 10

// readLine returns the next NDJSON line of the stream, valid until the
// next call. A stream that ends between lines is io.EOF; one cut inside a
// line yields the fragment, which then fails to decode.
func (c *RowCursor) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		// A record longer than the read buffer: assemble it.
		line = append([]byte(nil), line...)
		for err == bufio.ErrBufferFull {
			var more []byte
			more, err = c.br.ReadSlice('\n')
			line = append(line, more...)
		}
	}
	if err == io.EOF && len(line) > 0 {
		err = nil
	}
	return line, err
}

// rowRecordPrefix opens every row record the server writes.
const rowRecordPrefix = `{"type":"row","values":`

// rowValues decodes a row record in the plain shape wire.AppendRow
// writes; ok=false leaves the line — a header or trailer, a row with
// escapes, another server's spacing — to encoding/json.
func rowValues(line []byte, width int) (row []interface{}, ok bool) {
	if !bytes.HasPrefix(line, []byte(rowRecordPrefix)) {
		return nil, false
	}
	row, rest, ok := wire.ParseRow(line[len(rowRecordPrefix):], width)
	return row, ok && string(rest) == "}\n"
}

// end marks the cursor exhausted; the current row is cleared so Scan and
// Row past the end fail like Cursor's do, instead of replaying the last
// delivered row.
func (c *RowCursor) end() {
	c.done = true
	c.cur = nil
}

// Scan copies the current row's values into dest (same conversions as
// Cursor.Scan).
func (c *RowCursor) Scan(dest ...interface{}) error {
	if c.cur == nil {
		return fmt.Errorf("client: Scan without a successful Next")
	}
	return scanRow(c.cur, dest)
}

// Row returns the current row's raw values.
func (c *RowCursor) Row() []interface{} { return c.cur }

// Rows reports how many rows have been delivered so far.
func (c *RowCursor) Rows() int { return c.rows }

// Err returns the terminal error, if the stream ended on one (including
// server-side session errors carried in the trailing error record).
func (c *RowCursor) Err() error { return c.err }

// Warnings returns the degraded-branch warnings from the stream's
// trailing record — populated only after Next has returned false on a
// partial-results query whose branches were dropped.
func (c *RowCursor) Warnings() []planner.Warning { return c.warnings }

// Close releases the cursor's connection. Closing before exhaustion
// abandons the stream, which cancels the server-side query session.
func (c *RowCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.resp.Body.Close()
}

// Mediate returns the mediated SQL without executing it; canceling ctx
// abandons the request.
func (c *Conn) Mediate(ctx context.Context, sql, context_ string) (string, int, error) {
	var resp wire.MediateResponse
	if err := c.postWith(ctx, c.client, "/api/mediate", wire.QueryRequest{SQL: sql, Context: context_}, &resp); err != nil {
		return "", 0, err
	}
	return resp.MediatedSQL, resp.Branches, nil
}

// Plan returns the server's execution plan for the mediated query under
// opts, or with analyze set asks the server to execute it with measurement
// attached and returns the plans annotated with actual rows, source
// queries and cost per step. Canceling ctx abandons the request (the
// server then stops planning, statistics probes included).
func (c *Conn) Plan(ctx context.Context, sql, context_ string, analyze bool, opts Options) (string, error) {
	req, err := wire.NewQueryRequest(sql, context_, false, opts)
	if err != nil {
		return "", err
	}
	req.Analyze = analyze
	var resp wire.ExplainResponse
	if err := c.postQuery(ctx, "/api/explain", req, opts, &resp); err != nil {
		return "", err
	}
	return resp.Plan, nil
}

// Cursor iterates a Result row by row, in the style of an ODBC cursor.
type Cursor struct {
	res *Result
	i   int
}

// Cursor returns a fresh cursor positioned before the first row.
func (r *Result) Cursor() *Cursor { return &Cursor{res: r} }

// Next advances to the next row; it returns false after the last one,
// and the cursor then stays past the end (Scan fails).
func (c *Cursor) Next() bool {
	if c.i >= len(c.res.Rows) {
		c.i = len(c.res.Rows) + 1
		return false
	}
	c.i++
	return true
}

// Scan copies the current row's values into dest, which must contain one
// pointer per column: *string, *float64, *bool, or *interface{}.
func (c *Cursor) Scan(dest ...interface{}) error {
	if c.i == 0 || c.i > len(c.res.Rows) {
		return fmt.Errorf("client: Scan without a successful Next")
	}
	return scanRow(c.res.Rows[c.i-1], dest)
}

// scanRow copies row values into destination pointers (*string, *float64,
// *bool, or *interface{}); Cursor and RowCursor share it.
func scanRow(row []interface{}, dest []interface{}) error {
	if len(dest) != len(row) {
		return fmt.Errorf("client: Scan got %d destinations for %d columns", len(dest), len(row))
	}
	for i, d := range dest {
		switch d := d.(type) {
		case *interface{}:
			*d = row[i]
		case *string:
			s, ok := row[i].(string)
			if !ok {
				return fmt.Errorf("client: column %d is %T, not string", i, row[i])
			}
			*d = s
		case *float64:
			f, ok := row[i].(float64)
			if !ok {
				return fmt.Errorf("client: column %d is %T, not float64", i, row[i])
			}
			*d = f
		case *bool:
			b, ok := row[i].(bool)
			if !ok {
				return fmt.Errorf("client: column %d is %T, not bool", i, row[i])
			}
			*d = b
		default:
			return fmt.Errorf("client: unsupported Scan destination %T", d)
		}
	}
	return nil
}
