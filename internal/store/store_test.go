package store

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/relalg"
)

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
	if err := db.DropTable("r1"); err != nil {
		t.Error(err)
	}
	if err := db.DropTable("r1"); err == nil {
		t.Error("double drop succeeded")
	}
}

const r1CSV = `cname:str,revenue:num,currency:str
IBM,100000000,USD
NTT,1000000,JPY
`

func TestCSVRoundTrip(t *testing.T) {
	rel, err := ReadCSV("r1", strings.NewReader(r1CSV))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("rows = %d", rel.Len())
	}
	if rel.Schema.Columns[1].Type != relalg.KindNumber {
		t.Error("typed header lost")
	}
	if rel.Tuples[1][1].N != 1e6 {
		t.Errorf("NTT revenue = %v", rel.Tuples[1][1])
	}
	var buf bytes.Buffer
	if err := WriteCSV(rel, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("r1", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !relalg.SameTuples(rel, back) {
		t.Errorf("round trip changed tuples:\n%s\nvs\n%s", rel, back)
	}
}

func TestCSVNullHandling(t *testing.T) {
	rel, err := ReadCSV("t", strings.NewReader("a:str,b:num\nx,\n,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Tuples[0][1].IsNull() || !rel.Tuples[1][0].IsNull() {
		t.Errorf("NULL import broken: %s", rel)
	}
	var buf bytes.Buffer
	if err := WriteCSV(rel, &buf); err != nil {
		t.Fatal(err)
	}
	back, _ := ReadCSV("t", &buf)
	if !back.Tuples[0][1].IsNull() {
		t.Error("NULL export broken")
	}
}

func TestCSVErrors(t *testing.T) {
	cases := []string{
		"a:wat\n1\n",       // unknown type
		"a:num\nxyz\n",     // bad number
		"a:num,b:num\n1\n", // wrong arity
		":num\n1\n",        // empty name
	}
	for _, src := range cases {
		if _, err := ReadCSV("t", strings.NewReader(src)); err == nil {
			t.Errorf("ReadCSV(%q) succeeded, want error", src)
		}
	}
}

func TestLoadCSVTable(t *testing.T) {
	db := NewDB("src1")
	tab, err := LoadCSVTable(db, "r1", strings.NewReader(r1CSV))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 {
		t.Errorf("rows = %d", tab.Len())
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
}
