package wrappertest

// One conformance table for every streaming backend. All of them deliver
// through the shared cursor (wrapper.NewCursor), so the same query must
// come back as the same tuple sequence whichever way it is asked for —
// Query, tuple by tuple, or in blocks of any width — and faults,
// cancellation and early Close must look the same from the outside.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/relalg"
	"repro/internal/store"
	"repro/internal/wrapper"
	"repro/internal/wrapper/filesrc"
	"repro/internal/wrapper/restsrc"
	"repro/internal/wrapper/sqlsrc"
)

const (
	confRelation = "stock"
	confRows     = 23 // no multiple of the page, chunk or batch widths below
)

var confSchema = relalg.NewSchema(
	relalg.Column{Name: "sym", Type: relalg.KindString},
	relalg.Column{Name: "qty", Type: relalg.KindNumber},
	relalg.Column{Name: "cur", Type: relalg.KindString},
	relalg.Column{Name: "ok", Type: relalg.KindBool},
)

// confData is the base relation: qty rises with the row number, except
// for the values every comparison must agree on — one NULL and the
// non-finite numbers (row 0 -Inf, row 1 +Inf, row 4 NaN) — and cur cycles
// through three currencies.
func confData() []relalg.Tuple {
	curs := []string{"USD", "JPY", "DEM"}
	odd := map[int]relalg.Value{
		0: relalg.NumV(math.Inf(-1)),
		1: relalg.NumV(math.Inf(1)),
		4: relalg.NumV(math.NaN()),
		7: relalg.Null,
	}
	rows := make([]relalg.Tuple, confRows)
	for i := range rows {
		qty, ok := odd[i]
		if !ok {
			qty = relalg.NumV(float64(10 * i))
		}
		rows[i] = relalg.Tuple{relalg.StrV(fmt.Sprintf("S%02d", i)), qty, relalg.StrV(curs[i%3]), relalg.BoolV(i%2 == 0)}
	}
	return rows
}

// confQuery carries a pushed comparison, an IN list and a reordering
// projection.
var confQuery = wrapper.SourceQuery{
	Relation: confRelation,
	Columns:  []string{"qty", "sym"},
	Filters: []wrapper.Filter{
		{Column: "cur", Op: wrapper.OpIn, Values: []relalg.Value{relalg.StrV("USD"), relalg.StrV("JPY")}},
		{Column: "qty", Op: ">=", Value: relalg.NumV(30)},
	},
}

// confWant answers confQuery over rows by hand — no Matcher, no cursor.
func confWant(rows []relalg.Tuple) []relalg.Tuple {
	var out []relalg.Tuple
	for _, r := range rows {
		if cur := r[2].S; cur != "USD" && cur != "JPY" {
			continue
		}
		// NULL and NaN fail ">=", +Inf passes and -Inf fails.
		if r[1].IsNull() || math.IsNaN(r[1].N) || r[1].N < 30 {
			continue
		}
		out = append(out, relalg.Tuple{r[1], r[0]})
	}
	return out
}

func confDB(rows []relalg.Tuple) *store.DB {
	db := store.NewDB("confdb")
	tab := db.MustCreateTable(confRelation, confSchema)
	for _, r := range rows {
		tab.MustInsert(r...)
	}
	return db
}

// writeFile stores rows as stock.csv or stock.json in dir; corrupt >= 0
// spoils that row's qty so decoding fails exactly there. JSON has no
// number for NaN or ±Inf, so the JSON file spells those as strings.
func writeFile(t *testing.T, dir string, rows []relalg.Tuple, asJSON bool, corrupt int) {
	t.Helper()
	header := []string{"sym:str", "qty:num", "cur:str", "ok:bool"}
	name, body := confRelation+".csv", []byte(strings.Join(header, ",")+"\n")
	if asJSON {
		name = confRelation + ".json"
		doc := struct {
			Columns []string `json:"columns"`
			Rows    [][]any  `json:"rows"`
		}{Columns: header}
		for i, r := range rows {
			row := []any{r[0].S, nil, r[2].S, r[3].B}
			if q := r[1].N; !r[1].IsNull() {
				row[1] = q
				if math.IsNaN(q) || math.IsInf(q, 0) {
					row[1] = r[1].String()
				}
			}
			if i == corrupt {
				row[1] = "oops"
			}
			doc.Rows = append(doc.Rows, row)
		}
		var err error
		if body, err = json.Marshal(doc); err != nil {
			t.Fatal(err)
		}
	} else {
		for i, r := range rows {
			qty := ""
			if !r[1].IsNull() {
				qty = r[1].String()
			}
			if i == corrupt {
				qty = "oops"
			}
			body = fmt.Appendf(body, "%s,%s,%s,%t\n", r[0].S, qty, r[2].S, r[3].B)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
		t.Fatal(err)
	}
}

// openFDs counts this process's descriptors open on files under dir: the
// file handles streams over a file source hold.
func openFDs(t *testing.T, dir string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to count file handles with: %v", err)
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir) {
			n++
		}
	}
	return n
}

// backend is one row of the conformance table.
type backend struct {
	name string
	w    wrapper.Wrapper
	// held reports how many source-side resources (file handles, database
	// cursors) open streams hold right now; nil when the backend holds
	// nothing between reads.
	held func(t *testing.T) int
	// reads reports the source round trips made so far; nil when they
	// cannot be observed from outside.
	reads func() int
	// faulty builds a variant of the backend whose raw read fails after k
	// raw rows, and the answer to confQuery expected before the error.
	faulty func(t *testing.T, k int) (wrapper.Wrapper, []relalg.Tuple)
}

func fileBackend(t *testing.T, asJSON bool) backend {
	name := map[bool]string{false: "filesrc-csv", true: "filesrc-json"}[asJSON]
	open := func(t *testing.T) (*filesrc.Source, string) {
		dir := t.TempDir()
		writeFile(t, dir, confData(), asJSON, -1)
		src, err := filesrc.New(name, dir)
		if err != nil {
			t.Fatal(err)
		}
		return src, dir
	}
	src, dir := open(t)
	return backend{
		name: name,
		w:    src,
		held: func(t *testing.T) int { return openFDs(t, dir) },
		faulty: func(t *testing.T, k int) (wrapper.Wrapper, []relalg.Tuple) {
			// New decodes the whole file to count its rows, so the row is
			// spoiled once the source exists.
			bad, dir := open(t)
			writeFile(t, dir, confData(), asJSON, k)
			return bad, confWant(confData()[:k])
		},
	}
}

func sqlBackend(t *testing.T) backend {
	sqldb, _ := sqlsrc.OpenMem(confDB(confData()))
	t.Cleanup(func() { sqldb.Close() })
	return backend{
		name: "sqlsrc",
		w:    sqlsrc.New("confsql", sqldb).AddRelation(confRelation, confSchema),
		held: func(*testing.T) int { return sqldb.Stats().InUse },
	}
}

// restBackend serves the data from a restsrc.Server; failAt > 0 makes the
// failAt-th page request (1-based) a 500.
func restBackend(t *testing.T, pageSize, failAt int) (backend, *restsrc.Server) {
	srv := restsrc.NewServer(confDB(confData()))
	srv.PageSize = pageSize
	var pages atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/query" {
			if int(pages.Add(1)) == failAt {
				http.Error(w, "scripted fault", http.StatusInternalServerError)
				return
			}
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	src, err := restsrc.DialContext(context.Background(), "confrest", hs.URL, hs.Client())
	if err != nil {
		t.Fatal(err)
	}
	return backend{name: "restsrc", w: src, reads: srv.Hits}, srv
}

func backends(t *testing.T) []backend {
	rest, _ := restBackend(t, 5, 0)
	rest.faulty = func(t *testing.T, k int) (wrapper.Wrapper, []relalg.Tuple) {
		// The service filters, so a page of k rows is k surviving rows; the
		// second page request dies.
		bad, _ := restBackend(t, k, 2)
		return bad.w, confWant(confData())[:k]
	}
	chunked := NewChunked(wrapper.NewRelational(confDB(confData())), 4)
	return []backend{
		{name: "relational", w: wrapper.NewRelational(confDB(confData()))},
		fileBackend(t, false),
		fileBackend(t, true),
		sqlBackend(t),
		rest,
		{name: "chunked", w: chunked, reads: chunked.Chunks},
	}
}

// drainTuples reads st tuple by tuple; drainBatches in blocks of max,
// holding every block to the BatchStream contract and scribbling over it
// once copied — the block is the stream's buffer to reuse, the tuples in
// it are the consumer's to keep.
func drainTuples(st wrapper.TupleStream) ([]relalg.Tuple, error) {
	var out []relalg.Tuple
	for {
		tup, ok, err := st.Next()
		if err != nil || !ok {
			return out, err
		}
		out = append(out, tup)
	}
}

func drainBatches(t *testing.T, st wrapper.TupleStream, max int) ([]relalg.Tuple, error) {
	t.Helper()
	bs, ok := st.(wrapper.BatchStream)
	if !ok {
		t.Fatalf("%T offers no BatchStream", st)
	}
	var out []relalg.Tuple
	for {
		rows, err := bs.NextBatch(max)
		if err != nil && len(rows) > 0 {
			t.Fatalf("NextBatch(%d) returned %d rows together with %v", max, len(rows), err)
		}
		if len(rows) > max {
			t.Fatalf("NextBatch(%d) returned %d rows", max, len(rows))
		}
		if err != nil || len(rows) == 0 {
			return out, err
		}
		out = append(out, rows...)
		clear(rows)
	}
}

// forms lists the ways an answer can be asked for.
type form struct {
	name string
	run  func(t *testing.T, ctx context.Context, w wrapper.Wrapper, q wrapper.SourceQuery) (relalg.Schema, []relalg.Tuple, error)
}

func streamForm(name string, drain func(*testing.T, wrapper.TupleStream) ([]relalg.Tuple, error)) form {
	return form{name, func(t *testing.T, ctx context.Context, w wrapper.Wrapper, q wrapper.SourceQuery) (relalg.Schema, []relalg.Tuple, error) {
		st, err := wrapper.QueryStream(ctx, w, q)
		if err != nil {
			return relalg.Schema{}, nil, err
		}
		defer st.Close()
		rows, err := drain(t, st)
		return st.Schema(), rows, err
	}}
}

func batchForm(max int) form {
	return streamForm(fmt.Sprintf("batch-%d", max), func(t *testing.T, st wrapper.TupleStream) ([]relalg.Tuple, error) {
		return drainBatches(t, st, max)
	})
}

var (
	tupleForm = streamForm("per-tuple", func(_ *testing.T, st wrapper.TupleStream) ([]relalg.Tuple, error) {
		return drainTuples(st)
	})
	// mixedForm switches from tuples to blocks mid-stream: the rows Next
	// had read ahead must come out of the next NextBatch, not vanish.
	mixedForm = streamForm("tuple-then-batch-7", func(t *testing.T, st wrapper.TupleStream) ([]relalg.Tuple, error) {
		first, ok, err := st.Next()
		if err != nil || !ok {
			return nil, err
		}
		rest, err := drainBatches(t, st, 7)
		return append([]relalg.Tuple{first}, rest...), err
	})
	streamForms = []form{tupleForm, batchForm(1), batchForm(7), batchForm(1024), mixedForm}
	allForms    = append([]form{{"query", func(_ *testing.T, ctx context.Context, w wrapper.Wrapper, q wrapper.SourceQuery) (relalg.Schema, []relalg.Tuple, error) {
		rel, err := w.Query(ctx, q)
		if err != nil {
			return relalg.Schema{}, nil, err
		}
		return rel.Schema, rel.Tuples, nil
	}}}, streamForms...)
)

func sameTuples(t *testing.T, what string, got, want []relalg.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, want %d\n got %v\nwant %v", what, len(got), len(want), got, want)
	}
	for i := range want {
		if !slices.EqualFunc(got[i], want[i], func(a, b relalg.Value) bool { return a.Key() == b.Key() }) {
			t.Fatalf("%s: tuple %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestConformanceForms: every delivery form of every backend answers the
// filtered, IN-listed, projected query with the same schema and the same
// tuples in the same order. The subtests keep their parts-1 level: the
// whole-relation query is the one scan a source answers.
func TestConformanceForms(t *testing.T) {
	want := confWant(confData())
	if len(want) < 8 {
		t.Fatalf("fixture too selective: %d rows", len(want))
	}
	for _, b := range backends(t) {
		for _, f := range allForms {
			t.Run(fmt.Sprintf("%s/parts-1/%s", b.name, f.name), func(t *testing.T) {
				schema, got, err := f.run(t, context.Background(), b.w, confQuery)
				if err != nil {
					t.Fatal(err)
				}
				if names := schema.Names(); len(names) != 2 || names[0] != "qty" || names[1] != "sym" ||
					schema.Columns[0].Type != relalg.KindNumber || schema.Columns[1].Type != relalg.KindString {
					t.Fatalf("schema = %v, want (qty:num, sym:str)", schema.Columns)
				}
				sameTuples(t, "answer", got, want)
			})
		}
		// Consumers scribbled over every block they were handed; the source's
		// own rows must be untouched (Table.Scan aliases the table's array).
		rel, err := b.w.Query(context.Background(), wrapper.SourceQuery{Relation: confRelation})
		if err != nil {
			t.Fatal(err)
		}
		sameTuples(t, b.name+" base relation after the drains", rel.Tuples, confData())
	}
}

// TestConformanceCrossKindFilters: a pushed value of another kind than
// its column compares as the engine compares it — never equal, never
// ordered, always "<>" — on every backend, whatever kind the backend's
// wire or driver reads the value back as.
func TestConformanceCrossKindFilters(t *testing.T) {
	cases := []struct {
		f    wrapper.Filter
		want func(relalg.Tuple) bool
	}{
		{wrapper.Filter{Column: "sym", Op: "=", Value: relalg.NumV(5)}, func(relalg.Tuple) bool { return false }},
		{wrapper.Filter{Column: "qty", Op: "<", Value: relalg.StrV("x")}, func(relalg.Tuple) bool { return false }},
		{wrapper.Filter{Column: "ok", Op: "=", Value: relalg.StrV("x")}, func(relalg.Tuple) bool { return false }},
		{wrapper.Filter{Column: "qty", Op: "<>", Value: relalg.BoolV(true)}, func(r relalg.Tuple) bool { return !r[1].IsNull() }},
		{wrapper.Filter{Column: "cur", Op: wrapper.OpIn, Values: []relalg.Value{relalg.NumV(1), relalg.StrV("DEM")}},
			func(r relalg.Tuple) bool { return r[2].S == "DEM" }},
		// Texts and numbers that a backend could read as the column's
		// kind: qty 30 and the flags exist, yet none of them match.
		{wrapper.Filter{Column: "qty", Op: "=", Value: relalg.StrV("30")}, func(relalg.Tuple) bool { return false }},
		{wrapper.Filter{Column: "qty", Op: "<>", Value: relalg.StrV("30")}, func(r relalg.Tuple) bool { return !r[1].IsNull() }},
		{wrapper.Filter{Column: "qty", Op: "<", Value: relalg.StrV("+Inf")}, func(relalg.Tuple) bool { return false }},
		{wrapper.Filter{Column: "ok", Op: "=", Value: relalg.NumV(1)}, func(relalg.Tuple) bool { return false }},
		{wrapper.Filter{Column: "qty", Op: wrapper.OpIn, Values: []relalg.Value{relalg.StrV("30"), relalg.NumV(50)}},
			func(r relalg.Tuple) bool { return r[1].K == relalg.KindNumber && r[1].N == 50 }},
	}
	for _, b := range backends(t) {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/%s%s%v%v", b.name, c.f.Column, c.f.Op, c.f.Value, c.f.Values), func(t *testing.T) {
				rel, err := b.w.Query(context.Background(), wrapper.SourceQuery{Relation: confRelation, Filters: []wrapper.Filter{c.f}})
				if err != nil {
					t.Fatal(err)
				}
				var want []relalg.Tuple
				for _, r := range confData() {
					if c.want(r) {
						want = append(want, r)
					}
				}
				sameTuples(t, "answer", rel.Tuples, want)
			})
		}
	}
}

// TestConformanceBlocksAreTheStreamsOwn: an unfiltered, unprojected scan
// is where a stream could hand out the source's own row slice. It must
// not — the block is a buffer the consumer may overwrite.
func TestConformanceBlocksAreTheStreamsOwn(t *testing.T) {
	for _, b := range backends(t) {
		t.Run(b.name, func(t *testing.T) {
			for range 2 {
				st, err := wrapper.QueryStream(context.Background(), b.w, wrapper.SourceQuery{Relation: confRelation})
				if err != nil {
					t.Fatal(err)
				}
				got, err := drainBatches(t, st, 7)
				st.Close()
				if err != nil {
					t.Fatal(err)
				}
				sameTuples(t, "full scan", got, confData())
			}
		})
	}
}

// TestConformanceFaultAfterRows: a raw read that fails after k rows
// delivers exactly the rows that survived before it, then the error, in
// every streaming form; Query fails whole.
func TestConformanceFaultAfterRows(t *testing.T) {
	const k = 11
	for _, b := range backends(t) {
		if b.faulty == nil {
			continue
		}
		for _, f := range allForms {
			t.Run(b.name+"/"+f.name, func(t *testing.T) {
				w, want := b.faulty(t, k)
				_, got, err := f.run(t, context.Background(), w, confQuery)
				if err == nil {
					t.Fatalf("no error after %d raw rows; got %d tuples", k, len(got))
				}
				if f.name == "query" {
					if got != nil {
						t.Fatalf("failed Query still returned %d tuples", len(got))
					}
					return
				}
				sameTuples(t, "rows before the fault", got, want)
			})
		}
	}
}

// spyReader is a RawReader over a slice that counts what the cursor does
// to it and can fail after a given number of rows — handing the rows read
// so far over together with the error, as the RawReader contract allows.
type spyReader struct {
	rows    []relalg.Tuple
	failAt  int // fail once this many rows were delivered; < 0: never
	err     error
	pos     int
	reads   int
	closes  int
	withErr bool // deliver the last rows and the error in one call
}

func (s *spyReader) Schema() relalg.Schema { return confSchema }

func (s *spyReader) NextBatch(max int) ([]relalg.Tuple, error) {
	s.reads++
	end := min(s.pos+max, len(s.rows))
	if s.failAt >= 0 && end >= s.failAt {
		end = s.failAt
		rows := s.rows[s.pos:end]
		s.pos = end
		if len(rows) == 0 || s.withErr {
			return rows, s.err
		}
		return rows, nil
	}
	rows := s.rows[s.pos:end]
	s.pos = end
	return rows, nil
}

func (s *spyReader) Close() error { s.closes++; return nil }

// TestCursorFaultHoldBack pins the cursor's half of the fault contract
// directly: whether the raw reader reports the fault with its last rows
// or on the call after them, the consumer sees the surviving rows, then
// the error, and never both at once.
func TestCursorFaultHoldBack(t *testing.T) {
	boom := wrapper.Transient(errors.New("boom"))
	for _, k := range []int{0, 1, 11, confRows} {
		for _, withErr := range []bool{false, true} {
			for _, f := range streamForms {
				t.Run(fmt.Sprintf("k-%d/with-rows-%v/%s", k, withErr, f.name), func(t *testing.T) {
					spy := &spyReader{rows: confData(), failAt: k, err: boom, withErr: withErr}
					st, err := wrapper.NewCursor(context.Background(), spy, confQuery.Filters, confQuery.Columns)
					if err != nil {
						t.Fatal(err)
					}
					w := streamOnly{st}
					_, got, err := f.run(t, context.Background(), w, confQuery)
					if !errors.Is(err, wrapper.ErrTransient) || !strings.Contains(err.Error(), "boom") {
						t.Fatalf("error = %v, want the injected transient fault", err)
					}
					sameTuples(t, "rows before the fault", got, confWant(confData()[:k]))
					if spy.closes != 1 {
						t.Fatalf("raw reader closed %d times, want 1", spy.closes)
					}
				})
			}
		}
	}
}

// streamOnly serves one prepared stream as a wrapper, so the forms can
// drain a cursor built over a spy.
type streamOnly struct{ st wrapper.TupleStream }

func (s streamOnly) QueryStream(context.Context, wrapper.SourceQuery) (wrapper.TupleStream, error) {
	return s.st, nil
}
func (streamOnly) Source() string                       { return "spy" }
func (streamOnly) Relations() []string                  { return []string{confRelation} }
func (streamOnly) Schema(string) (relalg.Schema, error) { return confSchema, nil }
func (streamOnly) Capabilities(string) (wrapper.Capabilities, error) {
	return wrapper.Capabilities{}, nil
}
func (streamOnly) EstimateRows(context.Context, string) int { return confRows }
func (streamOnly) Cost() wrapper.Cost                       { return wrapper.Cost{} }
func (s streamOnly) Query(context.Context, wrapper.SourceQuery) (*relalg.Relation, error) {
	return wrapper.Drain(confRelation, s.st)
}

// TestConformanceCancelBetweenBlocks: once the query's context is
// canceled, the next read — block or tuple — is ctx.Err(), and the source
// is not contacted again.
func TestConformanceCancelBetweenBlocks(t *testing.T) {
	check := func(t *testing.T, st wrapper.TupleStream, reads func() int, perTuple bool, cancel func()) {
		t.Helper()
		defer st.Close()
		bs := st.(wrapper.BatchStream)
		if perTuple {
			if _, ok, err := st.Next(); !ok || err != nil {
				t.Fatalf("first Next: ok=%v err=%v", ok, err)
			}
		} else if rows, err := bs.NextBatch(2); len(rows) == 0 || err != nil {
			t.Fatalf("first NextBatch: %d rows, err=%v", len(rows), err)
		}
		before := 0
		if reads != nil {
			before = reads()
		}
		cancel()
		var err error
		if perTuple {
			_, _, err = st.Next()
		} else {
			_, err = bs.NextBatch(2)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("read after cancel = %v, want context.Canceled", err)
		}
		if reads != nil && reads() != before {
			t.Fatalf("source read %d more time(s) after cancel", reads()-before)
		}
	}
	for _, perTuple := range []bool{false, true} {
		mode := map[bool]string{false: "batch", true: "per-tuple"}[perTuple]
		for _, b := range backends(t) {
			t.Run(b.name+"/"+mode, func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				st, err := wrapper.QueryStream(ctx, b.w, confQuery)
				if err != nil {
					t.Fatal(err)
				}
				check(t, st, b.reads, perTuple, cancel)
			})
		}
		t.Run("spy/"+mode, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			spy := &spyReader{rows: confData(), failAt: -1}
			st, err := wrapper.NewCursor(ctx, spy, confQuery.Filters, confQuery.Columns)
			if err != nil {
				t.Fatal(err)
			}
			check(t, st, func() int { return spy.reads }, perTuple, cancel)
		})
	}
}

// TestConformanceEarlyClose: Close before exhaustion releases what the
// stream held at the source, once however often it is called, and a read
// after Close reaches no source.
func TestConformanceEarlyClose(t *testing.T) {
	for _, b := range backends(t) {
		t.Run(b.name, func(t *testing.T) {
			st, err := wrapper.QueryStream(context.Background(), b.w, confQuery)
			if err != nil {
				t.Fatal(err)
			}
			// One row only: a wider read could exhaust the source, which may
			// release it on its own.
			if rows, err := st.(wrapper.BatchStream).NextBatch(1); len(rows) != 1 || err != nil {
				t.Fatalf("first NextBatch(1): %d rows, err=%v", len(rows), err)
			}
			if b.held != nil {
				if n := b.held(t); n != 1 {
					t.Fatalf("open stream holds %d source resources, want 1", n)
				}
			}
			for i := range 2 {
				if err := st.Close(); err != nil {
					t.Fatalf("Close #%d: %v", i+1, err)
				}
			}
			if b.held != nil {
				if n := b.held(t); n != 0 {
					t.Fatalf("closed stream still holds %d source resources", n)
				}
			}
			before := 0
			if b.reads != nil {
				before = b.reads()
			}
			if rows, err := st.(wrapper.BatchStream).NextBatch(1024); err == nil || len(rows) > 0 {
				t.Fatalf("read after Close: %d rows, err=%v; want an error", len(rows), err)
			}
			if b.reads != nil && b.reads() != before {
				t.Fatal("read after Close reached the source")
			}
		})
	}
	t.Run("spy", func(t *testing.T) {
		spy := &spyReader{rows: confData(), failAt: -1}
		st, err := wrapper.NewCursor(context.Background(), spy, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		st.Next()
		st.Close()
		st.Close()
		if spy.closes != 1 {
			t.Fatalf("raw reader closed %d times, want exactly once", spy.closes)
		}
		reads := spy.reads
		if _, _, err := st.Next(); err == nil || spy.reads != reads {
			t.Fatalf("Next after Close: err=%v, %d further raw read(s)", err, spy.reads-reads)
		}
	})
	t.Run("bad-query-closes-raw", func(t *testing.T) {
		spy := &spyReader{rows: confData(), failAt: -1}
		if _, err := wrapper.NewCursor(context.Background(), spy, nil, []string{"ghost"}); err == nil {
			t.Fatal("projection of an unknown column accepted")
		}
		if spy.closes != 1 {
			t.Fatalf("failed NewCursor closed the raw reader %d times, want 1", spy.closes)
		}
	})
}

// TestRestNeverPrefetchesAPage: a wide block request is served from the
// page already fetched; page n+1 is fetched when the consumer asks again.
func TestRestNeverPrefetchesAPage(t *testing.T) {
	b, srv := restBackend(t, 5, 0)
	st, err := wrapper.QueryStream(context.Background(), b.w, wrapper.SourceQuery{Relation: confRelation})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	before := srv.Hits()
	rows, err := st.(wrapper.BatchStream).NextBatch(1024)
	if err != nil || len(rows) != 5 {
		t.Fatalf("first block: %d rows, err=%v; want the 5 rows of page 0", len(rows), err)
	}
	if got := srv.Hits() - before; got != 1 {
		t.Fatalf("one block cost %d page requests, want 1", got)
	}
}
