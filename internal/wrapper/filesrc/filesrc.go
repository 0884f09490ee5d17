// Package filesrc wraps a directory of CSV and JSON files as a mediator
// source: every file is one relation (its base name), streamed row by row
// at query time so a LIMIT upstream stops the read early. It is the
// "flat-file archive" shape of heterogeneous source — no query engine on
// the far side, so the wrapper itself honors Selection and Projection
// through the shared Matcher, and the advertised cost profile is
// expensive-per-query (the file must be opened and parsed from the top on
// every access) but cheap-per-tuple (local disk transfer).
//
// Formats:
//
//   - name.csv — a typed header row "col:type,..." followed by data
//     rows, an empty field being NULL: what store.WriteCSV writes.
//   - name.json — one object {"columns": ["col:type", ...],
//     "rows": [[v, ...], ...]}; a cell is read by wrapper.FromScalar (so
//     a number may also be spelled as a string, "NaN" and "±Inf"
//     included), and rows are decoded incrementally, so a large file is
//     never held in memory at once.
//
// Both formats declare columns with the tags store.ParseHeader reads and
// store.FormatHeader writes: str, num, bool (str when omitted).
package filesrc

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/relalg"
	"repro/internal/store"
	"repro/internal/wrapper"
)

// DefaultCost is the advertised cost profile: a high fixed per-query
// price (open + parse from the top of the file) and a near-free per-tuple
// transfer — the opposite corner of the latency space from a REST source,
// which is what makes the pair interesting to the optimizer.
var DefaultCost = wrapper.Cost{PerQuery: 40, PerTuple: 0.02}

// relationFile is one discovered file: where it lives, how to decode it,
// and its schema and cardinality (both read once at New).
type relationFile struct {
	path   string
	isJSON bool
	schema relalg.Schema
	rows   int
}

// Source is a directory of flat files served through the wrapper
// protocol. It is immutable after New and safe for concurrent queries
// (every query opens its own file handle).
type Source struct {
	name string
	// CostParams defaults to DefaultCost when zero.
	CostParams wrapper.Cost
	rels       map[string]*relationFile
}

// New scans dir for *.csv and *.json relations, reading each file once to
// learn its schema and cardinality. The relation name is the file's base
// name without extension; a name exported by both formats is an error.
func New(name, dir string) (*Source, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("filesrc: %w", err)
	}
	s := &Source{name: name, rels: map[string]*relationFile{}}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		ext := strings.ToLower(filepath.Ext(e.Name()))
		if ext != ".csv" && ext != ".json" {
			continue
		}
		rel := strings.TrimSuffix(e.Name(), filepath.Ext(e.Name()))
		if dup, ok := s.rels[rel]; ok {
			return nil, fmt.Errorf("filesrc: relation %s exported by both %s and %s", rel, dup.path, e.Name())
		}
		rf := &relationFile{path: filepath.Join(dir, e.Name()), isJSON: ext == ".json"}
		if err := rf.inspect(); err != nil {
			return nil, err
		}
		s.rels[rel] = rf
	}
	if len(s.rels) == 0 {
		return nil, fmt.Errorf("filesrc: %s holds no .csv or .json relations", dir)
	}
	return s, nil
}

// inspect reads the file once for its schema and row count.
func (rf *relationFile) inspect() error {
	st, err := rf.open()
	if err != nil {
		return err
	}
	defer st.Close()
	rf.schema = st.Schema()
	for {
		_, ok, err := st.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		rf.rows++
	}
	return nil
}

// open starts a raw (unfiltered) row stream over the file.
func (rf *relationFile) open() (fileStream, error) {
	f, err := os.Open(rf.path)
	if err != nil {
		return nil, fmt.Errorf("filesrc: %w", err)
	}
	if rf.isJSON {
		st, err := newJSONStream(f, rf.path)
		if err != nil {
			f.Close()
			return nil, err
		}
		return st, nil
	}
	st, err := newCSVStream(f, rf.path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return st, nil
}

// Source implements wrapper.Wrapper.
func (s *Source) Source() string { return s.name }

// Relations implements wrapper.Wrapper.
func (s *Source) Relations() []string {
	out := make([]string, 0, len(s.rels))
	for r := range s.rels {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

func (s *Source) relation(name string) (*relationFile, error) {
	rf, ok := s.rels[name]
	if !ok {
		return nil, fmt.Errorf("filesrc: %s exports no relation %s", s.name, name)
	}
	return rf, nil
}

// Schema implements wrapper.Wrapper.
func (s *Source) Schema(relation string) (relalg.Schema, error) {
	rf, err := s.relation(relation)
	if err != nil {
		return relalg.Schema{}, err
	}
	return rf.schema, nil
}

// Capabilities implements wrapper.Wrapper: the wrapper evaluates
// selections and projections itself while streaming the file; a flat
// file answers no IN-list disjunctions natively and requires no bindings.
func (s *Source) Capabilities(relation string) (wrapper.Capabilities, error) {
	if _, err := s.relation(relation); err != nil {
		return wrapper.Capabilities{}, err
	}
	return wrapper.Capabilities{Selection: true, Projection: true}, nil
}

// EstimateRows implements wrapper.Wrapper from the cardinality counted at
// New; no probe runs, so the context is unused.
func (s *Source) EstimateRows(_ context.Context, relation string) int {
	rf, err := s.relation(relation)
	if err != nil {
		return 0
	}
	return rf.rows
}

// Cost implements wrapper.Wrapper.
func (s *Source) Cost() wrapper.Cost {
	if s.CostParams == (wrapper.Cost{}) {
		return DefaultCost
	}
	return s.CostParams
}

// Query implements wrapper.Wrapper by draining QueryStream.
func (s *Source) Query(ctx context.Context, q wrapper.SourceQuery) (*relalg.Relation, error) {
	st, err := s.QueryStream(ctx, q)
	if err != nil {
		return nil, err
	}
	return wrapper.Drain(q.Relation, st)
}

// QueryStream implements wrapper.Streamer: the file is opened at call
// time and rows are parsed as the engine pulls — the shared cursor
// filters and projects them — so an early exit stops the read mid-file.
func (s *Source) QueryStream(ctx context.Context, q wrapper.SourceQuery) (wrapper.TupleStream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rf, err := s.relation(q.Relation)
	if err != nil {
		return nil, err
	}
	raw, err := rf.open()
	if err != nil {
		return nil, err
	}
	return wrapper.NewCursor(ctx, &blockReader{raw: raw}, q.Filters, q.Columns)
}

// fileStream is the raw row decoder of one file format.
type fileStream interface {
	Schema() relalg.Schema
	Next() (relalg.Tuple, bool, error)
	Close() error
}

// blockReader is the file source's wrapper.RawReader: it fills blocks
// from a per-row decoder.
type blockReader struct {
	raw fileStream
	buf []relalg.Tuple
}

func (b *blockReader) Schema() relalg.Schema { return b.raw.Schema() }

// NextBatch implements wrapper.RawReader; a decode error comes with the
// rows read before it.
func (b *blockReader) NextBatch(max int) ([]relalg.Tuple, error) {
	b.buf = b.buf[:0]
	for len(b.buf) < max {
		t, ok, err := b.raw.Next()
		if err != nil || !ok {
			return b.buf, err
		}
		b.buf = append(b.buf, t)
	}
	return b.buf, nil
}

func (b *blockReader) Close() error { return b.raw.Close() }

// csvStream parses one CSV relation row by row.
type csvStream struct {
	f      *os.File
	r      *csv.Reader
	path   string
	schema relalg.Schema
	line   int
}

func newCSVStream(f *os.File, path string) (*csvStream, error) {
	r := csv.NewReader(f)
	r.TrimLeadingSpace = true
	header, err := r.Read()
	if err != nil {
		return nil, fmt.Errorf("filesrc: reading %s header: %w", path, err)
	}
	schema, err := store.ParseHeader(header)
	if err != nil {
		return nil, fmt.Errorf("filesrc: %s: %w", path, err)
	}
	return &csvStream{f: f, r: r, path: path, schema: schema, line: 1}, nil
}

func (c *csvStream) Schema() relalg.Schema { return c.schema }

func (c *csvStream) Next() (relalg.Tuple, bool, error) {
	rec, err := c.r.Read()
	if err == io.EOF {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("filesrc: reading %s: %w", c.path, err)
	}
	c.line++
	if len(rec) != len(c.schema.Columns) {
		return nil, false, fmt.Errorf("filesrc: %s line %d: %d fields for %d columns", c.path, c.line, len(rec), len(c.schema.Columns))
	}
	t := make(relalg.Tuple, len(rec))
	for i, field := range rec {
		v, err := relalg.ParseValue(field, c.schema.Columns[i].Type)
		if err != nil {
			return nil, false, fmt.Errorf("filesrc: %s line %d column %s: %w", c.path, c.line, c.schema.Columns[i].Name, err)
		}
		t[i] = v
	}
	return t, true, nil
}

func (c *csvStream) Close() error { return c.f.Close() }

// jsonStream decodes a {"columns": [...], "rows": [[...], ...]} document
// incrementally: the columns header eagerly, then one row per Next
// through the json.Decoder's token stream.
type jsonStream struct {
	f      *os.File
	dec    *json.Decoder
	path   string
	schema relalg.Schema
	row    int
	done   bool
}

func newJSONStream(f *os.File, path string) (*jsonStream, error) {
	dec := json.NewDecoder(f)
	s := &jsonStream{f: f, dec: dec, path: path}
	fail := func(err error) (*jsonStream, error) {
		return nil, fmt.Errorf("filesrc: %s: %w", path, err)
	}
	if err := expectDelim(dec, '{'); err != nil {
		return fail(err)
	}
	// Walk the top-level keys; "columns" must precede "rows" so the
	// schema is known before data streams.
	for {
		tok, err := dec.Token()
		if err != nil {
			return fail(err)
		}
		key, ok := tok.(string)
		if !ok {
			return fail(fmt.Errorf("expected object key, got %v", tok))
		}
		switch key {
		case "columns":
			var header []string
			if err := dec.Decode(&header); err != nil {
				return fail(err)
			}
			schema, err := store.ParseHeader(header)
			if err != nil {
				return fail(err)
			}
			s.schema = schema
		case "rows":
			if len(s.schema.Columns) == 0 {
				return fail(fmt.Errorf(`"columns" must precede "rows"`))
			}
			if err := expectDelim(dec, '['); err != nil {
				return fail(err)
			}
			return s, nil
		default:
			// Skip unknown keys (metadata, comments).
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				return fail(err)
			}
		}
	}
}

func expectDelim(dec *json.Decoder, want json.Delim) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if d, ok := tok.(json.Delim); !ok || d != want {
		return fmt.Errorf("expected %q, got %v", want, tok)
	}
	return nil
}

func (j *jsonStream) Schema() relalg.Schema { return j.schema }

func (j *jsonStream) Next() (relalg.Tuple, bool, error) {
	if j.done || !j.dec.More() {
		j.done = true
		return nil, false, nil
	}
	var raw []any
	if err := j.dec.Decode(&raw); err != nil {
		return nil, false, fmt.Errorf("filesrc: %s row %d: %w", j.path, j.row+1, err)
	}
	j.row++
	if len(raw) != len(j.schema.Columns) {
		return nil, false, fmt.Errorf("filesrc: %s row %d: %d fields for %d columns", j.path, j.row, len(raw), len(j.schema.Columns))
	}
	t := make(relalg.Tuple, len(raw))
	for i, v := range raw {
		val, err := wrapper.FromScalar(v, j.schema.Columns[i].Type)
		if err != nil {
			return nil, false, fmt.Errorf("filesrc: %s row %d column %s: %w", j.path, j.row, j.schema.Columns[i].Name, err)
		}
		t[i] = val
	}
	return t, true, nil
}

func (j *jsonStream) Close() error { return j.f.Close() }
