package refeval

// The referee's wire leg: every generated query also runs naive through the
// HTTP server and the Go client, on the buffered /api/query and on the
// NDJSON /api/query/stream, and the rows that come back are held to the
// evaluator's answer. An answer holding NaN or ±Inf has no JSON encoding:
// the buffered endpoint must refuse it with the classified error, and the
// stream must deliver the rows before the bad one and then an error
// trailer.

import (
	"context"
	"math"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/coin"
	"repro/internal/client"
	"repro/internal/relalg"
	"repro/internal/sqlparse"
	"repro/internal/wrapper"
)

// wireChunk is the fetch width of the wire leg's sources: narrow enough
// that most answers cross several batches on their way to the wire.
const wireChunk = 7

// wireSystem serves the engine's wrappers through a coin.System whose
// executor runs nested-loop joins without batching.
func (w *world) wireSystem(engine []wrapper.Wrapper) *coin.System {
	sys := coin.New(coin.NewModel())
	w.addSources(sys.Catalog, engine, wireChunk)
	ex := sys.Executor()
	ex.ForceNestedLoop, ex.DisableBatching = true, true
	return sys
}

// unencodable is the text of the classified error a non-finite answer
// must end in.
const unencodable = "has no JSON encoding"

// checkWire sends stmt, printed, to both result endpoints and holds what
// arrives to want. No source stream may stay open after a request.
func (w *world) checkWire(t *testing.T, seed int64, stmt sqlparse.Statement, want answer) {
	t.Helper()
	sql := stmt.String()
	back, err := sqlparse.Parse(sql)
	if err != nil || back.String() != sql || !reflect.DeepEqual(back, stmt) {
		t.Fatalf("seed %d: the printed statement does not re-parse to itself (%v)\n%s", seed, err, sql)
	}
	bad := slices.IndexFunc(want.rows, func(r relalg.Tuple) bool {
		return slices.ContainsFunc(r, func(v relalg.Value) bool {
			return v.K == relalg.KindNumber && (math.IsNaN(v.N) || math.IsInf(v.N, 0))
		})
	})
	wantRows := render(want.rows, canon)
	if !ordered(stmt) {
		sort.Strings(wantRows)
	}

	srv := httptest.NewServer(w.sys.Handler())
	defer srv.Close()
	conn, err := client.Open(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	fail := func(endpoint, format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d %s: "+format+"\n%s", append(append([]any{seed, endpoint}, args...), sql)...)
	}
	res, err := conn.QueryNaiveCtx(ctx, sql, client.Options{})
	switch {
	case bad >= 0 && (err == nil || !strings.Contains(err.Error(), unencodable)):
		fail("/api/query", "a non-finite answer gave err=%v, want %q", err, unencodable)
	case bad < 0 && err != nil:
		fail("/api/query", "%v", err)
	case bad < 0:
		if d := diff(wantRows, wireRows(res.Rows, !ordered(stmt))); d != "" {
			fail("/api/query", "wire and evaluator disagree\n%s", d)
		}
	}
	if open := w.open.Load(); open != 0 {
		fail("/api/query", "%d source streams left open", open)
	}

	cur, err := conn.QueryStream(ctx, sql, "", true, client.Options{})
	if err != nil {
		fail("/api/query/stream", "%v", err)
	}
	var rows [][]interface{}
	for cur.Next() {
		rows = append(rows, cur.Row())
	}
	err = cur.Err()
	cur.Close()
	switch {
	case bad >= 0 && (err == nil || !strings.Contains(err.Error(), unencodable)):
		fail("/api/query/stream", "a non-finite answer ended with err=%v, want %q", err, unencodable)
	case bad >= 0 && ordered(stmt):
		if d := diff(render(want.rows[:bad], canon), wireRows(rows, false)); d != "" {
			fail("/api/query/stream", "the rows before the non-finite one differ\n%s", d)
		}
	case bad >= 0:
		if len(rows) >= len(want.rows) || !subset(wireRows(rows, true), wantRows) {
			fail("/api/query/stream", "%d rows before the error are not a strict part of the answer's %d", len(rows), len(want.rows))
		}
	case err != nil:
		fail("/api/query/stream", "%v", err)
	default:
		if d := diff(wantRows, wireRows(rows, !ordered(stmt))); d != "" {
			fail("/api/query/stream", "wire and evaluator disagree\n%s", d)
		}
	}
	if open := w.open.Load(); open != 0 {
		fail("/api/query/stream", "%d source streams left open", open)
	}
}

// wireRows renders decoded wire rows as canon renders tuples, sorted when
// the answer has no fixed order.
func wireRows(rows [][]interface{}, sorted bool) []string {
	tuples := make([]relalg.Tuple, len(rows))
	for i, r := range rows {
		t := make(relalg.Tuple, len(r))
		for j, v := range r {
			switch v := v.(type) {
			case float64:
				t[j] = relalg.NumV(v)
			case string:
				t[j] = relalg.StrV(v)
			case bool:
				t[j] = relalg.BoolV(v)
			case nil:
				t[j] = relalg.Null
			default:
				t[j] = relalg.StrV(reflect.TypeOf(v).String())
			}
		}
		tuples[i] = t
	}
	out := render(tuples, canon)
	if sorted {
		sort.Strings(out)
	}
	return out
}

// subset reports whether the sorted multiset sub is contained in the sorted
// multiset of.
func subset(sub, of []string) bool {
	j := 0
	for _, s := range sub {
		for j < len(of) && of[j] < s {
			j++
		}
		if j == len(of) || of[j] != s {
			return false
		}
		j++
	}
	return true
}
