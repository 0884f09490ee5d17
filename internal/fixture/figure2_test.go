package fixture

import (
	"slices"
	"testing"

	"repro/internal/relalg"
)

func TestFigure2Data(t *testing.T) {
	r1 := R1Data()
	if r1.Len() != 2 {
		t.Fatalf("r1 rows = %d", r1.Len())
	}
	// NTT's raw revenue must match the paper's arithmetic (1,000,000).
	if r1.Tuples[1][0].S != "NTT" || r1.Tuples[1][1].N != 1e6 || r1.Tuples[1][2].S != "JPY" {
		t.Errorf("NTT row = %v", r1.Tuples[1])
	}
	r2 := R2Data()
	// IBM's expenses exceed its revenue so the paper's stated answer
	// (only NTT) holds.
	if !(r2.Tuples[0][1].N > r1.Tuples[0][1].N) {
		t.Errorf("IBM expenses %v must exceed revenue %v", r2.Tuples[0][1], r1.Tuples[0][1])
	}
	r3 := R3Data()
	found := false
	for _, tup := range r3.Tuples {
		if tup[0].S == "JPY" && tup[1].S == "USD" && tup[2].N == RateJPYToUSD {
			found = true
		}
	}
	if !found {
		t.Error("JPY→USD rate missing")
	}
}

func TestDatabasesMatchRegistry(t *testing.T) {
	reg := Registry()
	dbs := Databases()
	for db, rel := range map[string]string{
		"source1": "r1", "source2": "r2", "currencyweb": "r3",
	} {
		tab, err := dbs[db].Table(rel)
		if err != nil {
			t.Fatalf("%s: %v", db, err)
		}
		schema, ok := reg.Schema(rel)
		if !ok {
			t.Fatalf("registry lacks %s", rel)
		}
		if !tab.Schema.Equal(schema) {
			t.Errorf("%s schema mismatch: %v vs %v", rel, tab.Schema, schema)
		}
	}
}

func TestScaledWorkloadOracleConsistency(t *testing.T) {
	w := NewScaledWorkload(200, 7)
	if w.R1.Len() != 200 || w.R2.Len() != 200 {
		t.Fatalf("sizes = %d, %d", w.R1.Len(), w.R2.Len())
	}
	// Recompute the oracle by hand and compare.
	rates := map[string]float64{"JPY": RateJPYToUSD, "EUR": 1.10, "GBP": 1.55, "USD": 1}
	expect := map[string]float64{}
	for i, row := range w.R1.Tuples {
		cur := row[2].S
		rev := row[1].N
		usd := rev * rates[cur]
		if cur == "JPY" {
			usd = rev * 1000 * rates["JPY"]
		}
		exp := w.R2.Tuples[i][1].N
		if usd > exp {
			expect[row[0].S] = usd
		}
	}
	if len(expect) != w.Expected.Len() {
		t.Fatalf("oracle size = %d, fixture says %d", len(expect), w.Expected.Len())
	}
	for _, tup := range w.Expected.Tuples {
		if got := expect[tup[0].S]; got != tup[1].N {
			t.Errorf("%s: %v vs %v", tup[0].S, got, tup[1].N)
		}
	}
	// Determinism: same seed, same workload.
	w2 := NewScaledWorkload(200, 7)
	sameRow := func(a, b relalg.Tuple) bool { return a.FullKey() == b.FullKey() }
	if !slices.EqualFunc(w.R1.Tuples, w2.R1.Tuples, sameRow) || !slices.EqualFunc(w.Expected.Tuples, w2.Expected.Tuples, sameRow) {
		t.Error("workload generation is not deterministic")
	}
}

func TestWideAndConflictRegistries(t *testing.T) {
	wide := WideRegistry(5)
	if got := len(wide.RelationNames()); got != 8 {
		t.Errorf("wide relations = %d", got)
	}
	if _, err := wide.Compile("c2"); err != nil {
		t.Errorf("wide compile: %v", err)
	}
	conf := ConflictRegistry(3)
	if _, err := conf.Compile("recv"); err != nil {
		t.Errorf("conflict compile: %v", err)
	}
	schema, _ := conf.Schema("wide")
	if len(schema.Columns) != 2+3 {
		t.Errorf("conflict schema = %v", schema.Names())
	}
}
