package filesrc

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/relalg"
	"repro/internal/store"
	"repro/internal/wrapper"
)

func newTestSource(t *testing.T) *Source {
	t.Helper()
	s, err := New("archive", "testdata")
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestDiscoversBothFormats(t *testing.T) {
	s := newTestSource(t)
	rels := s.Relations()
	if len(rels) != 2 || rels[0] != "earnings" || rels[1] != "sectors" {
		t.Fatalf("Relations = %v, want [earnings sectors]", rels)
	}
	if got := s.EstimateRows(context.Background(), "earnings"); got != 6 {
		t.Fatalf("EstimateRows(earnings) = %d, want 6", got)
	}
	if got := s.EstimateRows(context.Background(), "sectors"); got != 6 {
		t.Fatalf("EstimateRows(sectors) = %d, want 6", got)
	}
	schema, err := s.Schema("sectors")
	if err != nil {
		t.Fatal(err)
	}
	want := []relalg.Kind{relalg.KindString, relalg.KindString, relalg.KindBool, relalg.KindNumber}
	for i, k := range want {
		if schema.Columns[i].Type != k {
			t.Fatalf("sectors column %d type = %v, want %v", i, schema.Columns[i].Type, k)
		}
	}
}

func TestCapabilitiesAndCost(t *testing.T) {
	s := newTestSource(t)
	caps, err := s.Capabilities("earnings")
	if err != nil {
		t.Fatal(err)
	}
	if !caps.Selection || !caps.Projection || caps.InList || len(caps.RequiredBindings) != 0 {
		t.Fatalf("capabilities = %+v, want Selection+Projection only", caps)
	}
	if c := s.Cost(); c.PerQuery <= c.PerTuple {
		t.Fatalf("cost %+v should be expensive per query, cheap per tuple", c)
	}
	if _, err := s.Capabilities("nope"); err == nil {
		t.Fatal("Capabilities(nope) should fail")
	}
}

func TestQueryPushdownAndProjection(t *testing.T) {
	s := newTestSource(t)
	rel, err := s.Query(context.Background(), wrapper.SourceQuery{
		Relation: "earnings",
		Columns:  []string{"cname", "revenue"},
		Filters:  []wrapper.Filter{{Column: "currency", Op: "=", Value: relalg.StrV("JPY")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Tuples) != 2 {
		t.Fatalf("got %d tuples, want 2: %v", len(rel.Tuples), rel.Tuples)
	}
	if got := rel.Schema.Names(); len(got) != 2 || got[0] != "cname" || got[1] != "revenue" {
		t.Fatalf("projected schema = %v", got)
	}
	if rel.Tuples[0][0].S != "NTT" || rel.Tuples[1][0].S != "SONY" {
		t.Fatalf("unexpected rows: %v", rel.Tuples)
	}
}

func TestJSONStreamingAndNulls(t *testing.T) {
	s := newTestSource(t)
	st, err := s.QueryStream(context.Background(), wrapper.SourceQuery{
		Relation: "sectors",
		Filters:  []wrapper.Filter{{Column: "listed", Op: "=", Value: relalg.BoolV(false)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var rows []relalg.Tuple
	for {
		tup, ok, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rows = append(rows, tup)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 (BT, ACME)", len(rows))
	}
	if !rows[1][3].IsNull() {
		t.Fatalf("ACME employees should be NULL, got %v", rows[1][3])
	}
}

func TestStreamHonorsContext(t *testing.T) {
	s := newTestSource(t)
	ctx, cancel := context.WithCancel(context.Background())
	st, err := s.QueryStream(ctx, wrapper.SourceQuery{Relation: "earnings"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, ok, err := st.Next(); err != nil || !ok {
		t.Fatalf("first Next: ok=%v err=%v", ok, err)
	}
	cancel()
	if _, _, err := st.Next(); err == nil {
		t.Fatal("Next after cancel should fail with ctx error")
	}
}

func TestInFilterViaSharedMatcher(t *testing.T) {
	s := newTestSource(t)
	rel, err := s.Query(context.Background(), wrapper.SourceQuery{
		Relation: "earnings",
		Filters: []wrapper.Filter{{Column: "cname", Op: wrapper.OpIn,
			Values: []relalg.Value{relalg.StrV("IBM"), relalg.StrV("BT")}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Tuples) != 2 {
		t.Fatalf("IN filter returned %d tuples, want 2", len(rel.Tuples))
	}
}

func TestUnknownRelationAndColumnErrors(t *testing.T) {
	s := newTestSource(t)
	if _, err := s.Query(context.Background(), wrapper.SourceQuery{Relation: "ghost"}); err == nil {
		t.Fatal("querying unknown relation should fail")
	}
	_, err := s.Query(context.Background(), wrapper.SourceQuery{
		Relation: "earnings",
		Filters:  []wrapper.Filter{{Column: "ghost", Op: "=", Value: relalg.NumV(1)}},
	})
	if err == nil {
		t.Fatal("filter on unknown column should fail")
	}
}

// TestServesWriteCSVOutput: what store.WriteCSV writes — cmd/coinwrap's
// output format, NULLs as empty fields — filesrc serves back tuple for
// tuple under the same schema.
func TestServesWriteCSVOutput(t *testing.T) {
	rel := relalg.NewRelation("r1", relalg.NewSchema(
		relalg.Column{Name: "cname", Type: relalg.KindString},
		relalg.Column{Name: "revenue", Type: relalg.KindNumber},
		relalg.Column{Name: "listed", Type: relalg.KindBool},
	))
	rel.MustAdd(relalg.StrV("IBM"), relalg.NumV(1e8), relalg.BoolV(true))
	rel.MustAdd(relalg.StrV("NTT"), relalg.NumV(0.0096), relalg.BoolV(false))
	rel.MustAdd(relalg.StrV("x"), relalg.Null, relalg.Null)
	rel.MustAdd(relalg.Null, relalg.NumV(-2), relalg.BoolV(true))
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := store.WriteCSV(rel, &buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "r1.csv"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New("out", dir)
	if err != nil {
		t.Fatal(err)
	}
	back, err := s.Query(context.Background(), wrapper.SourceQuery{Relation: "r1"})
	if err != nil {
		t.Fatal(err)
	}
	if !back.Schema.Equal(rel.Schema) {
		t.Fatalf("schema = %v, want %v", back.Schema.Columns, rel.Schema.Columns)
	}
	if len(back.Tuples) != len(rel.Tuples) {
		t.Fatalf("%d tuples, want %d", len(back.Tuples), len(rel.Tuples))
	}
	for i, want := range rel.Tuples {
		for j := range want {
			if got := back.Tuples[i][j]; got.Key() != want[j].Key() {
				t.Fatalf("tuple %d column %d = %v, want %v", i, j, got, want[j])
			}
		}
	}
}

// TestCSVErrors: a header or a row filesrc cannot read fails New, which
// reads every file once.
func TestCSVErrors(t *testing.T) {
	cases := map[string]string{
		"unknown type": "a:wat\n1\n",
		"bad number":   "a:num\nxyz\n",
		"wrong arity":  "a:num,b:num\n1\n",
		"empty name":   ":num\n1\n",
	}
	for name, src := range cases {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "t.csv"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := New("bad", dir); err == nil {
			t.Errorf("%s: New over %q succeeded, want error", name, src)
		}
	}
}
