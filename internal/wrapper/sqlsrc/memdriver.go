package sqlsrc

// An in-process database/sql/driver backed by a store.DB, so the SQL
// wrapper's pushdown path — filter compilation, IN-lists, COUNT(DISTINCT)
// statistics probes — is exercised through the real database/sql plumbing
// (Prepare, placeholder binding, driver.Rows) without cgo, containers, or
// a third-party driver. The driver accepts exactly the restricted SQL the
// wrapper emits (single-relation SELECT with ?-placeholder conjuncts and
// the two COUNT forms), parses it back into wrapper.Filter terms, and
// evaluates against the store through the same shared filter machinery
// every other wrapper uses. Every served statement is recorded, so tests
// can assert that pushdown really reached the "database".

import (
	"database/sql"
	"database/sql/driver"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/relalg"
	"repro/internal/store"
	"repro/internal/wrapper"
)

// MemDriver is the driver instance; it doubles as the test observer for
// the statements that reached it.
type MemDriver struct {
	db *store.DB

	mu    sync.Mutex
	stmts []string
}

// memRegistered numbers driver registrations: sql.Register panics on a
// duplicate name, and every OpenMem carries its own backing store.
var memRegistered atomic.Int64

// OpenMem registers a fresh in-process driver over db and opens a
// database/sql handle on it. The returned MemDriver records every
// statement served, for pushdown assertions.
func OpenMem(db *store.DB) (*sql.DB, *MemDriver) {
	d := &MemDriver{db: db}
	name := fmt.Sprintf("coinmem-%d", memRegistered.Add(1))
	sql.Register(name, d)
	sqldb, err := sql.Open(name, db.Name)
	if err != nil {
		// Unreachable: the driver name was just registered.
		panic(fmt.Sprintf("sqlsrc: opening registered driver: %v", err))
	}
	return sqldb, d
}

// Statements snapshots the SQL statements served so far, in order.
func (d *MemDriver) Statements() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.stmts...)
}

// Reset clears the recorded statements.
func (d *MemDriver) Reset() {
	d.mu.Lock()
	d.stmts = nil
	d.mu.Unlock()
}

func (d *MemDriver) record(s string) {
	d.mu.Lock()
	d.stmts = append(d.stmts, s)
	d.mu.Unlock()
}

// Open implements driver.Driver.
func (d *MemDriver) Open(string) (driver.Conn, error) { return &memConn{d: d}, nil }

// memConn is a stateless connection; all state lives in the store.
type memConn struct{ d *MemDriver }

// Prepare implements driver.Conn.
func (c *memConn) Prepare(query string) (driver.Stmt, error) {
	parsed, err := parseMemSQL(query)
	if err != nil {
		return nil, err
	}
	return &memStmt{d: c.d, text: query, q: parsed}, nil
}

// Close implements driver.Conn.
func (c *memConn) Close() error { return nil }

// Begin implements driver.Conn; the fixture is read-only.
func (c *memConn) Begin() (driver.Tx, error) {
	return nil, fmt.Errorf("sqlsrc: memdriver does not support transactions")
}

// memStmt is one prepared statement.
type memStmt struct {
	d    *MemDriver
	text string
	q    *memQuery
}

func (s *memStmt) Close() error { return nil }

// NumInput implements driver.Stmt.
func (s *memStmt) NumInput() int { return s.q.placeholders }

// Exec implements driver.Stmt; the fixture is read-only.
func (s *memStmt) Exec([]driver.Value) (driver.Result, error) {
	return nil, fmt.Errorf("sqlsrc: memdriver is read-only")
}

// Query implements driver.Stmt: bind the placeholder values, evaluate
// against the store, record the served statement.
func (s *memStmt) Query(args []driver.Value) (driver.Rows, error) {
	s.d.record(s.text)
	rel, err := s.q.run(s.d.db, args)
	if err != nil {
		return nil, err
	}
	return &memRows{rel: rel}, nil
}

// memRows adapts a materialized relation to driver.Rows.
type memRows struct {
	rel *relalg.Relation
	pos int
}

func (r *memRows) Columns() []string { return r.rel.Schema.Names() }

func (r *memRows) Close() error { return nil }

func (r *memRows) Next(dest []driver.Value) error {
	if r.pos >= len(r.rel.Tuples) {
		return io.EOF
	}
	t := r.rel.Tuples[r.pos]
	r.pos++
	for i, v := range t {
		dest[i] = wrapper.Scalar(v)
	}
	return nil
}

// memQuery is the parsed form of one accepted statement.
type memQuery struct {
	relation     string
	columns      []string // nil: count query
	countCol     string   // "" unless COUNT(DISTINCT col); "*" for COUNT(*)
	isCount      bool
	filters      []memFilter
	placeholders int
}

// memFilter is one WHERE conjunct with placeholder slots.
type memFilter struct {
	column string
	op     string // comparison op, or wrapper.OpIn
	args   int    // placeholder count (1, or the IN-list width)
}

// run binds args into the filters and evaluates.
func (q *memQuery) run(db *store.DB, args []driver.Value) (*relalg.Relation, error) {
	if len(args) != q.placeholders {
		return nil, fmt.Errorf("sqlsrc: %d args for %d placeholders", len(args), q.placeholders)
	}
	t, err := db.Table(q.relation)
	if err != nil {
		return nil, err
	}
	filters := make([]wrapper.Filter, 0, len(q.filters))
	next := 0
	for _, f := range q.filters {
		wf := wrapper.Filter{Column: f.column, Op: f.op}
		for range f.args {
			v, err := wrapper.ScalarValue(args[next])
			if err != nil {
				return nil, fmt.Errorf("sqlsrc: argument %d: %w", next+1, err)
			}
			next++
			if f.op == wrapper.OpIn {
				wf.Values = append(wf.Values, v)
			} else {
				wf.Value = v
			}
		}
		filters = append(filters, wf)
	}
	rel, err := wrapper.ApplyFilters(t.Scan(), filters)
	if err != nil {
		return nil, err
	}
	if q.isCount {
		n := len(rel.Tuples)
		if q.countCol != "*" {
			ci := rel.Schema.Index(q.countCol)
			if ci < 0 {
				return nil, fmt.Errorf("sqlsrc: %s has no column %s", q.relation, q.countCol)
			}
			seen := map[string]bool{}
			for _, tup := range rel.Tuples {
				if !tup[ci].IsNull() {
					seen[tup[ci].Key()] = true
				}
			}
			n = len(seen)
		}
		out := relalg.NewRelation("count", relalg.NewSchema(relalg.Column{Name: "n", Type: relalg.KindNumber}))
		out.Tuples = append(out.Tuples, relalg.Tuple{relalg.NumV(float64(n))})
		return out, nil
	}
	return wrapper.ProjectColumns(rel, q.columns)
}

// parseMemSQL parses the restricted dialect the wrapper emits. Grammar:
//
//	SELECT "c1", "c2" FROM "rel" [WHERE cond [AND cond]...]
//	SELECT COUNT(*) FROM "rel" [WHERE ...]
//	SELECT COUNT(DISTINCT "col") FROM "rel"
//	cond := "col" (= | <> | < | <= | > | >=) ?  |  "col" IN (?, ?, ...)
func parseMemSQL(text string) (*memQuery, error) {
	tk := &memTokens{src: text}
	q := &memQuery{}
	if err := tk.keyword("SELECT"); err != nil {
		return nil, err
	}
	if tk.accept("COUNT") {
		q.isCount = true
		if err := tk.punct("("); err != nil {
			return nil, err
		}
		if tk.accept("*") {
			q.countCol = "*"
		} else {
			if err := tk.keyword("DISTINCT"); err != nil {
				return nil, err
			}
			col, err := tk.ident()
			if err != nil {
				return nil, err
			}
			q.countCol = col
		}
		if err := tk.punct(")"); err != nil {
			return nil, err
		}
	} else {
		for {
			col, err := tk.ident()
			if err != nil {
				return nil, err
			}
			q.columns = append(q.columns, col)
			if !tk.accept(",") {
				break
			}
		}
	}
	if err := tk.keyword("FROM"); err != nil {
		return nil, err
	}
	rel, err := tk.ident()
	if err != nil {
		return nil, err
	}
	q.relation = rel
	if tk.accept("WHERE") {
		for {
			f, err := tk.cond()
			if err != nil {
				return nil, err
			}
			q.filters = append(q.filters, f)
			q.placeholders += f.args
			if !tk.accept("AND") {
				break
			}
		}
	}
	if !tk.done() {
		return nil, fmt.Errorf("sqlsrc: trailing input in %q", text)
	}
	return q, nil
}

// memTokens is a minimal tokenizer over the restricted dialect.
type memTokens struct {
	src string
	pos int
}

func (t *memTokens) skipSpace() {
	for t.pos < len(t.src) && (t.src[t.pos] == ' ' || t.src[t.pos] == '\t' || t.src[t.pos] == '\n') {
		t.pos++
	}
}

func (t *memTokens) done() bool {
	t.skipSpace()
	return t.pos >= len(t.src)
}

// peekWord reads the next bare word without consuming it.
func (t *memTokens) peekWord() (string, int) {
	t.skipSpace()
	i := t.pos
	for i < len(t.src) {
		c := t.src[i]
		if (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || c == '_' || c == '*' || c == ',' && i == t.pos {
			if c == ',' || c == '*' {
				if i == t.pos {
					i++
				}
				break
			}
			i++
			continue
		}
		break
	}
	return t.src[t.pos:i], i
}

// accept consumes the token when it matches (case-insensitive for words).
func (t *memTokens) accept(tok string) bool {
	w, end := t.peekWord()
	if strings.EqualFold(w, tok) && w != "" {
		t.pos = end
		return true
	}
	return false
}

func (t *memTokens) keyword(kw string) error {
	if !t.accept(kw) {
		return fmt.Errorf("sqlsrc: expected %s at %q", kw, t.src[t.pos:])
	}
	return nil
}

func (t *memTokens) punct(p string) error {
	t.skipSpace()
	if strings.HasPrefix(t.src[t.pos:], p) {
		t.pos += len(p)
		return nil
	}
	return fmt.Errorf("sqlsrc: expected %q at %q", p, t.src[t.pos:])
}

// ident reads a double-quoted identifier.
func (t *memTokens) ident() (string, error) {
	t.skipSpace()
	if t.pos >= len(t.src) || t.src[t.pos] != '"' {
		return "", fmt.Errorf("sqlsrc: expected quoted identifier at %q", t.src[t.pos:])
	}
	end := strings.IndexByte(t.src[t.pos+1:], '"')
	if end < 0 {
		return "", fmt.Errorf("sqlsrc: unterminated identifier at %q", t.src[t.pos:])
	}
	name := t.src[t.pos+1 : t.pos+1+end]
	t.pos += end + 2
	return name, nil
}

// cond parses one WHERE conjunct.
func (t *memTokens) cond() (memFilter, error) {
	col, err := t.ident()
	if err != nil {
		return memFilter{}, err
	}
	t.skipSpace()
	if t.accept("IN") {
		if err := t.punct("("); err != nil {
			return memFilter{}, err
		}
		n := 0
		for {
			if err := t.punct("?"); err != nil {
				return memFilter{}, err
			}
			n++
			if !t.accept(",") {
				break
			}
		}
		if err := t.punct(")"); err != nil {
			return memFilter{}, err
		}
		return memFilter{column: col, op: wrapper.OpIn, args: n}, nil
	}
	op := ""
	for _, cand := range []string{"<=", ">=", "<>", "=", "<", ">"} {
		if strings.HasPrefix(t.src[t.pos:], cand) {
			op = cand
			t.pos += len(cand)
			break
		}
	}
	if op == "" {
		return memFilter{}, fmt.Errorf("sqlsrc: expected comparison operator at %q", t.src[t.pos:])
	}
	if err := t.punct("?"); err != nil {
		return memFilter{}, err
	}
	return memFilter{column: col, op: op, args: 1}, nil
}
