// Package sqlsrc wraps a database/sql backend as a COIN source. It is the
// "capable relational server" point in the backend matrix: pushed filters,
// IN-lists from bind-join batching, and Statser distinct-count probes are
// all compiled to SQL text and executed on the database, so the mediator
// ships predicates instead of rows. Results stream straight off *sql.Rows.
//
// The wrapper speaks a deliberately small SQL dialect — single-relation
// SELECT with ?-placeholder conjuncts, plus COUNT(*) and COUNT(DISTINCT)
// probes — which keeps it portable across drivers and lets the hermetic
// in-process fixture (memdriver.go) parse everything it emits.
package sqlsrc

import (
	"context"
	"database/sql"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/relalg"
	"repro/internal/wrapper"
)

// DefaultCost models a networked database server: each round trip costs
// real latency, but the server filters cheaply and streams rows fast.
var DefaultCost = wrapper.Cost{PerQuery: 25, PerTuple: 0.05, MaxConcurrent: 4}

// The source speaks the full wrapper protocol: streaming and statistics
// on top of the materialized core.
var (
	_ wrapper.Wrapper  = (*Source)(nil)
	_ wrapper.Streamer = (*Source)(nil)
	_ wrapper.Statser  = (*Source)(nil)
)

// DefaultBatch is the IN-list width advertised to the bind-join planner.
const DefaultBatch = 8

// Source adapts one *sql.DB to the wrapper protocol. Relations must be
// declared up front with AddRelation; schema discovery is out of scope
// for the restricted dialect.
type Source struct {
	name string
	db   *sql.DB

	// CostParams and Batch may be adjusted before the source is registered.
	CostParams wrapper.Cost
	Batch      int
	// Require maps relation name to columns every query must bind — the
	// capability record of a keyed lookup service. The planner satisfies
	// required bindings by bind join, and because the source takes
	// IN-lists, probes arrive batched Batch-wide.
	Require map[string][]string

	mu       sync.Mutex
	rels     map[string]relalg.Schema
	rowEst   map[string]int
	distinct map[string]int
}

// New wraps db under the given source name.
func New(name string, db *sql.DB) *Source {
	return &Source{
		name:       name,
		db:         db,
		CostParams: DefaultCost,
		Batch:      DefaultBatch,
		rels:       map[string]relalg.Schema{},
		rowEst:     map[string]int{},
		distinct:   map[string]int{},
	}
}

// AddRelation declares a relation and its schema. Returns the source for
// chaining.
func (s *Source) AddRelation(name string, schema relalg.Schema) *Source {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rels[name] = schema
	return s
}

// Source implements wrapper.Wrapper.
func (s *Source) Source() string { return s.name }

// Relations implements wrapper.Wrapper.
func (s *Source) Relations() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.rels))
	for n := range s.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Schema implements wrapper.Wrapper.
func (s *Source) Schema(relation string) (relalg.Schema, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	schema, ok := s.rels[relation]
	if !ok {
		return relalg.Schema{}, fmt.Errorf("sqlsrc: source %s has no relation %s", s.name, relation)
	}
	return schema, nil
}

// Capabilities implements wrapper.Wrapper: the server evaluates pushed
// conjuncts, projects columns, and accepts IN-lists for batched bind joins.
func (s *Source) Capabilities(relation string) (wrapper.Capabilities, error) {
	if _, err := s.Schema(relation); err != nil {
		return wrapper.Capabilities{}, err
	}
	return wrapper.Capabilities{
		Selection:        true,
		Projection:       true,
		InList:           true,
		BatchSize:        s.Batch,
		RequiredBindings: append([]string(nil), s.Require[relation]...),
	}, nil
}

// Cost implements wrapper.Wrapper.
func (s *Source) Cost() wrapper.Cost { return s.CostParams }

// ProbeTimeout bounds one stat probe (COUNT(*) / COUNT(DISTINCT)) on top
// of the caller's context: planning should never hang on a slow server
// for an estimate that is best-effort anyway.
const ProbeTimeout = 5 * time.Second

// EstimateRows implements wrapper.Wrapper via a cached COUNT(*) probe
// bounded by ctx plus ProbeTimeout — killing the planning session stops
// its probes. Estimation is best-effort: probe failures report zero rows
// rather than failing planning.
func (s *Source) EstimateRows(ctx context.Context, relation string) int {
	s.mu.Lock()
	if n, ok := s.rowEst[relation]; ok {
		s.mu.Unlock()
		return n
	}
	s.mu.Unlock()
	if _, err := s.Schema(relation); err != nil {
		return 0
	}
	pctx, cancel := context.WithTimeout(ctx, ProbeTimeout)
	defer cancel()
	n, err := s.countProbe(pctx, relation, "*")
	if err != nil {
		return 0
	}
	s.mu.Lock()
	s.rowEst[relation] = n
	s.mu.Unlock()
	return n
}

// DistinctCount implements wrapper.Statser via a cached COUNT(DISTINCT)
// probe, giving the optimizer real join selectivities from the server.
// The probe is bounded like EstimateRows's; failures report unknown
// rather than failing planning.
func (s *Source) DistinctCount(ctx context.Context, relation, column string) (int, bool) {
	key := relation + "\x00" + column
	s.mu.Lock()
	if n, ok := s.distinct[key]; ok {
		s.mu.Unlock()
		return n, true
	}
	s.mu.Unlock()
	schema, err := s.Schema(relation)
	if err != nil || schema.Index(column) < 0 {
		return 0, false
	}
	pctx, cancel := context.WithTimeout(ctx, ProbeTimeout)
	defer cancel()
	n, err := s.countProbe(pctx, relation, column)
	if err != nil {
		return 0, false
	}
	s.mu.Lock()
	s.distinct[key] = n
	s.mu.Unlock()
	return n, true
}

// countProbe runs COUNT(*) (col == "*") or COUNT(DISTINCT col).
func (s *Source) countProbe(ctx context.Context, relation, col string) (int, error) {
	target := "*"
	if col != "*" {
		q, err := quoteIdent(col)
		if err != nil {
			return 0, err
		}
		target = "DISTINCT " + q
	}
	rq, err := quoteIdent(relation)
	if err != nil {
		return 0, err
	}
	var n int
	row := s.db.QueryRowContext(ctx, fmt.Sprintf("SELECT COUNT(%s) FROM %s", target, rq))
	if err := row.Scan(&n); err != nil {
		return 0, wrapper.Transient(fmt.Errorf("sqlsrc: source %s: count probe on %s: %w", s.name, relation, err))
	}
	return n, nil
}

// Query implements wrapper.Wrapper by draining QueryStream.
func (s *Source) Query(ctx context.Context, q wrapper.SourceQuery) (*relalg.Relation, error) {
	st, err := s.QueryStream(ctx, q)
	if err != nil {
		return nil, err
	}
	return wrapper.Drain(q.Relation, st)
}

// QueryStream implements wrapper.Streamer: compile the source query to
// SQL, execute it on the server, and stream rows off the database cursor.
// Filters and projection are in the SQL text, so the shared cursor gets
// none to apply.
func (s *Source) QueryStream(ctx context.Context, q wrapper.SourceQuery) (wrapper.TupleStream, error) {
	schema, err := s.Schema(q.Relation)
	if err != nil {
		return nil, err
	}
	caps, err := s.Capabilities(q.Relation)
	if err != nil {
		return nil, err
	}
	if _, err := wrapper.CheckRequiredBindings(caps, q); err != nil {
		return nil, err
	}
	text, args, outSchema, err := compileQuery(schema, q)
	if err != nil {
		return nil, fmt.Errorf("sqlsrc: source %s: %w", s.name, err)
	}
	rows, err := s.db.QueryContext(ctx, text, args...)
	if err != nil {
		// The SQL text is machine-generated and the relation was resolved
		// above, so a query error here is server weather, not a bad query.
		return nil, wrapper.Transient(fmt.Errorf("sqlsrc: source %s: %w", s.name, err))
	}
	return wrapper.NewCursor(ctx, &sqlStream{src: s.name, rows: rows, schema: outSchema}, nil, nil)
}

// compileQuery renders a SourceQuery in the restricted dialect. Returned
// args are bound positionally to the ? placeholders.
func compileQuery(schema relalg.Schema, q wrapper.SourceQuery) (string, []any, relalg.Schema, error) {
	outSchema := schema
	cols := q.Columns
	if len(cols) == 0 {
		cols = schema.Names()
	} else {
		picked := make([]relalg.Column, 0, len(cols))
		for _, c := range cols {
			i := schema.Index(c)
			if i < 0 {
				return "", nil, relalg.Schema{}, fmt.Errorf("relation %s has no column %s", q.Relation, c)
			}
			picked = append(picked, schema.Columns[i])
		}
		outSchema = relalg.NewSchema(picked...)
	}
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, c := range cols {
		if i > 0 {
			b.WriteString(", ")
		}
		qc, err := quoteIdent(c)
		if err != nil {
			return "", nil, relalg.Schema{}, err
		}
		b.WriteString(qc)
	}
	rq, err := quoteIdent(q.Relation)
	if err != nil {
		return "", nil, relalg.Schema{}, err
	}
	b.WriteString(" FROM ")
	b.WriteString(rq)
	var args []any
	for i, f := range q.Filters {
		if schema.Index(f.Column) < 0 {
			return "", nil, relalg.Schema{}, fmt.Errorf("relation %s has no column %s", q.Relation, f.Column)
		}
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		fc, err := quoteIdent(f.Column)
		if err != nil {
			return "", nil, relalg.Schema{}, err
		}
		b.WriteString(fc)
		if f.Op == wrapper.OpIn {
			if len(f.Values) == 0 {
				return "", nil, relalg.Schema{}, fmt.Errorf("empty IN list on %s", f.Column)
			}
			b.WriteString(" IN (")
			for j, v := range f.Values {
				if j > 0 {
					b.WriteString(", ")
				}
				b.WriteString("?")
				args = append(args, wrapper.Scalar(v))
			}
			b.WriteString(")")
			continue
		}
		switch f.Op {
		case "=", "<>", "<", "<=", ">", ">=":
		default:
			return "", nil, relalg.Schema{}, fmt.Errorf("operator %q not supported", f.Op)
		}
		b.WriteString(" ")
		b.WriteString(f.Op)
		b.WriteString(" ?")
		args = append(args, wrapper.Scalar(f.Value))
	}
	return b.String(), args, outSchema, nil
}

// quoteIdent double-quotes an identifier, rejecting names that would
// escape the quoting.
func quoteIdent(name string) (string, error) {
	if name == "" || strings.ContainsAny(name, "\"\x00") {
		return "", fmt.Errorf("invalid identifier %q", name)
	}
	return `"` + name + `"`, nil
}

// sqlStream is the source's wrapper.RawReader over *sql.Rows, reading
// driver values as the declared column kinds (wrapper.FromScalar).
type sqlStream struct {
	src    string
	rows   *sql.Rows
	schema relalg.Schema

	// Reused scan destinations and the per-batch arena tuples are built in.
	bb   *relalg.BatchBuilder
	raw  []any
	ptrs []any
}

func (s *sqlStream) Schema() relalg.Schema { return s.schema }

// NextBatch implements wrapper.RawReader: one sweep of the database
// cursor per block, reusing the scan destinations across rows. A cursor
// or scan error comes with the rows swept before it.
func (s *sqlStream) NextBatch(max int) ([]relalg.Tuple, error) {
	arity := len(s.schema.Columns)
	if s.bb == nil {
		s.bb = relalg.NewBatchBuilder(arity)
		s.raw = make([]any, arity)
		s.ptrs = make([]any, arity)
		for i := range s.raw {
			s.ptrs[i] = &s.raw[i]
		}
	}
	s.bb.Reset(max)
	var err error
sweep:
	for s.bb.Len() < max {
		if !s.rows.Next() {
			if err = s.rows.Err(); err != nil {
				// A cursor dropped mid-stream is connection weather: transient.
				err = wrapper.Transient(fmt.Errorf("sqlsrc: cursor: %w", err))
			}
			break
		}
		if err = s.rows.Scan(s.ptrs...); err != nil {
			// A scan failure means the delivered shape does not match the
			// declared schema; retrying re-fetches the same shape.
			err = wrapper.Permanent(fmt.Errorf("sqlsrc: scan: %w", err))
			break
		}
		tup := s.bb.Row()
		for i, v := range s.raw {
			col := s.schema.Columns[i]
			if tup[i], err = wrapper.FromScalar(v, col.Type); err != nil {
				// A cell of another kind than declared: a re-fetch
				// delivers it again.
				s.bb.DropLast()
				err = wrapper.Permanent(fmt.Errorf("sqlsrc: source %s column %s: %w", s.src, col.Name, err))
				break sweep
			}
		}
	}
	return s.bb.Batch().Rows, err
}

func (s *sqlStream) Close() error { return s.rows.Close() }
