package store

import (
	"bytes"
	"encoding/csv"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/relalg"
)

// sameRow compares two rows value by value, kinds included.
func sameRow(a, b relalg.Tuple) bool { return a.FullKey() == b.FullKey() }

func companySchema() relalg.Schema {
	return relalg.NewSchema(
		relalg.Column{Name: "cname", Type: relalg.KindString},
		relalg.Column{Name: "revenue", Type: relalg.KindNumber},
		relalg.Column{Name: "currency", Type: relalg.KindString},
	)
}

func TestTableInsertAndScan(t *testing.T) {
	tab := NewTable("r1", companySchema())
	tab.MustInsert(relalg.StrV("IBM"), relalg.NumV(1e8), relalg.StrV("USD"))
	tab.MustInsert(relalg.StrV("NTT"), relalg.NumV(1e6), relalg.StrV("JPY"))
	if tab.Len() != 2 {
		t.Fatalf("len = %d", tab.Len())
	}
	rel := tab.Scan()
	if rel.Len() != 2 || rel.Tuples[0][0].S != "IBM" {
		t.Errorf("scan = %s", rel)
	}
	if err := tab.Insert(relalg.Tuple{relalg.StrV("x")}); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestTableIndexLookup(t *testing.T) {
	tab := NewTable("r1", companySchema())
	tab.MustInsert(relalg.StrV("IBM"), relalg.NumV(1e8), relalg.StrV("USD"))
	tab.MustInsert(relalg.StrV("NTT"), relalg.NumV(1e6), relalg.StrV("JPY"))
	if err := tab.CreateIndex("cname"); err != nil {
		t.Fatal(err)
	}
	if !tab.HasIndex("cname") {
		t.Error("index not registered")
	}
	got, err := tab.Lookup("cname", relalg.StrV("NTT"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Tuples[0][1].N != 1e6 {
		t.Errorf("lookup = %s", got)
	}
	// Insert after index creation must be visible through the index.
	tab.MustInsert(relalg.StrV("NTT"), relalg.NumV(5), relalg.StrV("EUR"))
	got, err = tab.Lookup("cname", relalg.StrV("NTT"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Errorf("post-insert lookup = %s", got)
	}
	// Unindexed lookup falls back to scan.
	got, err = tab.Lookup("currency", relalg.StrV("USD"))
	if err != nil || got.Len() != 1 {
		t.Errorf("fallback lookup = %v, %v", got, err)
	}
	if _, err := tab.Lookup("nope", relalg.StrV("x")); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestTableStats(t *testing.T) {
	tab := NewTable("r1", companySchema())
	tab.MustInsert(relalg.StrV("IBM"), relalg.NumV(1), relalg.StrV("USD"))
	tab.MustInsert(relalg.StrV("NTT"), relalg.NumV(2), relalg.StrV("USD"))
	st := tab.Stats()
	if st.Rows != 2 || st.Distinct["cname"] != 2 || st.Distinct["currency"] != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDBCatalog(t *testing.T) {
	db := NewDB("src1")
	db.MustCreateTable("r1", companySchema())
	if _, err := db.CreateTable("r1", companySchema()); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := db.Table("r1"); err != nil {
		t.Error(err)
	}
	if _, err := db.Table("zzz"); err == nil {
		t.Error("missing table lookup succeeded")
	}
	if got := db.TableNames(); len(got) != 1 || got[0] != "r1" {
		t.Errorf("names = %v", got)
	}
}

func TestParseHeaderDefaults(t *testing.T) {
	s, err := ParseHeader([]string{"a", "b:num", "c:bool"})
	if err != nil {
		t.Fatal(err)
	}
	want := []relalg.Kind{relalg.KindString, relalg.KindNumber, relalg.KindBool}
	for i, k := range want {
		if s.Columns[i].Type != k {
			t.Errorf("col %d type = %v, want %v", i, s.Columns[i].Type, k)
		}
	}
	// FormatHeader writes the canonical tags back; NULL has no source tag.
	got := FormatHeader(relalg.NewSchema(append(s.Columns, relalg.Column{Name: "d", Type: relalg.KindNull})...))
	if strings.Join(got, ",") != "a:str,b:num,c:bool,d:null" {
		t.Errorf("FormatHeader = %v", got)
	}
}

// readBack reads WriteCSV's output the way a CSV source does: the typed
// header through ParseHeader, each field through relalg.ParseValue.
func readBack(t *testing.T, name string, buf *bytes.Buffer) *relalg.Relation {
	t.Helper()
	recs, err := csv.NewReader(buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	schema, err := ParseHeader(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	rel := relalg.NewRelation(name, schema)
	for _, rec := range recs[1:] {
		tup := make([]relalg.Value, len(rec))
		for i, field := range rec {
			if tup[i], err = relalg.ParseValue(field, schema.Columns[i].Type); err != nil {
				t.Fatal(err)
			}
		}
		rel.MustAdd(tup...)
	}
	return rel
}

func TestCSVRoundTrip(t *testing.T) {
	rel := relalg.NewRelation("r1", companySchema())
	rel.MustAdd(relalg.StrV("IBM"), relalg.NumV(1e8), relalg.StrV("USD"))
	rel.MustAdd(relalg.StrV("NTT"), relalg.NumV(1e6), relalg.StrV("JPY"))
	var buf bytes.Buffer
	if err := WriteCSV(rel, &buf); err != nil {
		t.Fatal(err)
	}
	if line, _, _ := strings.Cut(buf.String(), "\n"); line != "cname:str,revenue:num,currency:str" {
		t.Errorf("header = %q", line)
	}
	back := readBack(t, "r1", &buf)
	if !back.Schema.Equal(rel.Schema) {
		t.Error("typed header lost")
	}
	if back.Len() != 2 || back.Tuples[1][1].N != 1e6 {
		t.Fatalf("read back:\n%s", back)
	}
	if !slices.EqualFunc(rel.Tuples, back.Tuples, sameRow) {
		t.Errorf("round trip changed tuples:\n%s\nvs\n%s", rel, back)
	}
}

func TestCSVNullHandling(t *testing.T) {
	rel := relalg.NewRelation("t", relalg.NewSchema(
		relalg.Column{Name: "a", Type: relalg.KindString},
		relalg.Column{Name: "b", Type: relalg.KindNumber},
	))
	rel.MustAdd(relalg.StrV("x"), relalg.Null)
	rel.MustAdd(relalg.Null, relalg.NumV(2))
	var buf bytes.Buffer
	if err := WriteCSV(rel, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "a:str,b:num\nx,\n,2\n" {
		t.Errorf("NULL export = %q, want empty fields", buf.String())
	}
	back := readBack(t, "t", &buf)
	if !back.Tuples[0][1].IsNull() || !back.Tuples[1][0].IsNull() {
		t.Errorf("NULL round trip broken: %s", back)
	}
}

// TestIndexLookupMatchesScan: a column's index answers what a scan of it
// answers under SQL equality — NULL and NaN match nothing, and 0 and −0
// match each other — so adding an index never changes a pushed "=".
func TestIndexLookupMatchesScan(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []relalg.Value{relalg.Null, relalg.NumV(math.NaN()), relalg.NumV(0), relalg.NumV(negZero), relalg.NumV(1)}
	mk := func(indexed bool) *Table {
		tab := NewTable("t", relalg.NewSchema(relalg.Column{Name: "k", Type: relalg.KindNumber}))
		if indexed {
			if err := tab.CreateIndex("k"); err != nil {
				t.Fatal(err)
			}
		}
		for _, v := range vals {
			tab.MustInsert(v)
		}
		return tab
	}
	scan, indexed := mk(false), mk(true)
	want := map[int]int{0: 0, 1: 0, 2: 2, 3: 2, 4: 1}
	for i, v := range vals {
		for _, tab := range []*Table{scan, indexed} {
			got, err := tab.Lookup("k", v)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != want[i] {
				t.Errorf("Lookup(%v) indexed=%v: %d rows, want %d", v, tab.HasIndex("k"), got.Len(), want[i])
			}
		}
	}
}
