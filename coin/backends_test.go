package coin

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/relalg"
	"repro/internal/store"
	"repro/internal/wrapper/restsrc"
	"repro/internal/wrapper/sqlsrc"
)

// TestHeterogeneousBackendRegistration wires a file directory, a SQL
// database and a REST service into one System next to the paper's
// relational sources, then runs a three-way federated join across all
// three backend kinds through the ordinary execution path.
func TestHeterogeneousBackendRegistration(t *testing.T) {
	sys := Figure2System()

	dir := t.TempDir()
	csv := "cname:str,sector:str\nIBM,Technology\nNTT,Telecom\nSONY,Electronics\n"
	if err := os.WriteFile(filepath.Join(dir, "sectors.csv"), []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddFileSource("archive", dir, nil); err != nil {
		t.Fatalf("AddFileSource: %v", err)
	}

	fdb := store.NewDB("financedb")
	accounts := fdb.MustCreateTable("accounts", relalg.NewSchema(
		relalg.Column{Name: "cname", Type: relalg.KindString},
		relalg.Column{Name: "expenses", Type: relalg.KindNumber}))
	accounts.MustInsert(relalg.StrV("IBM"), relalg.NumV(5000000))
	accounts.MustInsert(relalg.StrV("NTT"), relalg.NumV(3000000))
	accounts.MustInsert(relalg.StrV("SONY"), relalg.NumV(2500000))
	sqldb, _ := sqlsrc.OpenMem(fdb)
	t.Cleanup(func() { sqldb.Close() })
	src := sqlsrc.New("finance", sqldb).AddRelation("accounts", accounts.Scan().Schema)
	if err := sys.AddSQLSource(src, nil); err != nil {
		t.Fatalf("AddSQLSource: %v", err)
	}

	mdb := store.NewDB("marketsdb")
	quotes := mdb.MustCreateTable("quotes", relalg.NewSchema(
		relalg.Column{Name: "cname", Type: relalg.KindString},
		relalg.Column{Name: "price", Type: relalg.KindNumber}))
	quotes.MustInsert(relalg.StrV("IBM"), relalg.NumV(145.5))
	quotes.MustInsert(relalg.StrV("NTT"), relalg.NumV(88))
	quotes.MustInsert(relalg.StrV("SONY"), relalg.NumV(61.25))
	hs := httptest.NewServer(restsrc.NewServer(mdb))
	t.Cleanup(hs.Close)
	if err := sys.AddRESTSource(context.Background(), "markets", hs.URL, hs.Client(), nil); err != nil {
		t.Fatalf("AddRESTSource: %v", err)
	}

	rels := map[string]bool{}
	for _, r := range sys.Relations() {
		rels[r] = true
	}
	for _, want := range []string{"sectors", "accounts", "quotes", "r1", "r2"} {
		if !rels[want] {
			t.Errorf("relation %s missing after registration (have %v)", want, sys.Relations())
		}
	}

	rs, err := sys.Run(context.Background(),
		"SELECT sectors.cname, accounts.expenses, quotes.price FROM sectors, accounts, quotes "+
			"WHERE accounts.cname = sectors.cname AND quotes.cname = sectors.cname", "", true, QueryOptions{})
	if err != nil {
		t.Fatalf("federated join across file/SQL/REST backends: %v", err)
	}
	res, err := rs.Collect()
	if err != nil {
		t.Fatalf("federated join across file/SQL/REST backends: %v", err)
	}
	if res.Len() != 3 {
		t.Fatalf("join returned %d rows, want 3: %v", res.Len(), res.Tuples)
	}

	// The paper's own mediated query still works next to the new sources.
	rows, err := sys.Query(PaperQ1, "c2")
	if err != nil {
		t.Fatalf("PaperQ1 after registering extra backends: %v", err)
	}
	if rows.Len() != 1 || rows.Tuples[0][0].S != "NTT" {
		t.Fatalf("PaperQ1 = %v, want the <NTT, 9600000> answer", rows.Tuples)
	}
}

func TestAddFileSourceBadDir(t *testing.T) {
	sys := Figure2System()
	if err := sys.AddFileSource("nope", filepath.Join(t.TempDir(), "missing"), nil); err == nil {
		t.Fatal("AddFileSource on a missing directory should fail")
	}
}
