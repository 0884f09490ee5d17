package relalg

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/sqlparse"
)

// refSortRelation is the sort core this package shipped before the
// permutation kernel — each key evaluated per row into a decorated slice,
// then sort.SliceStable under SortKey — kept as the trivially-correct
// oracle sortTuples is compared against.
func refSortRelation(r *Relation, keys []OrderKey) (*Relation, error) {
	type decorated struct {
		t    Tuple
		keys []Value
	}
	fns := make([]CompiledExpr, len(keys))
	for ki, k := range keys {
		fns[ki] = Compile(k.Expr, r.Schema)
	}
	rows := make([]decorated, len(r.Tuples))
	for i, t := range r.Tuples {
		d := decorated{t: t, keys: make([]Value, len(keys))}
		for ki, fn := range fns {
			v, err := fn(t)
			if err != nil {
				return nil, err
			}
			d.keys[ki] = v
		}
		rows[i] = d
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for ki := range keys {
			c := rows[i].keys[ki].SortKey(rows[j].keys[ki])
			if c == 0 {
				continue
			}
			if keys[ki].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	out := NewRelation(r.Name, r.Schema)
	out.Tuples = make([]Tuple, len(rows))
	for i, d := range rows {
		out.Tuples[i] = d.t
	}
	return out, nil
}

// sortOracleRel builds n rows over an all-string column s and an
// all-number column n (the typed comparators), a column m mixing every
// kind, a number column q with NULLs and an all-boolean column f (the
// generic comparator), all drawn from few distinct values, plus a unique
// row id.
func sortOracleRel(rng *rand.Rand, n int) *Relation {
	rel := NewRelation("t", NewSchema(
		Column{"s", KindString}, Column{"n", KindNumber}, Column{"m", KindString},
		Column{"q", KindNumber}, Column{"f", KindBool}, Column{"id", KindNumber}))
	for i := 0; i < n; i++ {
		m := Null
		switch rng.Intn(4) {
		case 0:
			m = NumV(float64(rng.Intn(3)))
		case 1:
			m = StrV(fmt.Sprintf("m%d", rng.Intn(3)))
		case 2:
			m = BoolV(rng.Intn(2) == 0)
		}
		q := NumV(float64(rng.Intn(5)) - 2)
		if rng.Intn(4) == 0 {
			q = Null
		}
		rel.MustAdd(StrV(fmt.Sprintf("s%d", rng.Intn(6))), NumV(float64(rng.Intn(6))), m, q, BoolV(rng.Intn(2) == 0), NumV(float64(i)))
	}
	return rel
}

// TestSortKernelMatchesReference is the differential oracle: over random
// relations and key lists the kernel's output is, row for row, the
// reference stable sort's.
func TestSortKernelMatchesReference(t *testing.T) {
	exprs := []string{"s", "n", "m", "q", "f", "n + q", "-n", "n * 2 - q"}
	for _, n := range []int{0, 1, 2, 7, 1000, 5000} {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(n)))
			rel := sortOracleRel(rng, n)
			keys := make([]OrderKey, 1+rng.Intn(3))
			label := make([]string, len(keys))
			for i := range keys {
				e := exprs[rng.Intn(len(exprs))]
				keys[i] = OrderKey{Expr: mustExpr(e), Desc: rng.Intn(2) == 0}
				label[i] = fmt.Sprintf("%s desc=%v", e, keys[i].Desc)
			}
			want, err := refSortRelation(rel, keys)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sortRelation(rel, keys)
			if err != nil {
				t.Fatal(err)
			}
			requireSameRows(t, fmt.Sprintf("n=%d seed=%d keys=[%s]", n, seed, strings.Join(label, ", ")),
				want.Tuples, got.Tuples)
		}
	}
}

// TestSortNaNDocumentedOrder pins the order SortKey documents — NULL,
// then numbers ascending, then NaN, ties in input order.
func TestSortNaNDocumentedOrder(t *testing.T) {
	nums := []Value{NumV(math.NaN()), NumV(math.Float64frombits(0x7FF8000000000001)),
		NumV(math.Inf(-1)), NumV(-1), NumV(0), NumV(2.5), NumV(math.Inf(1))}
	for _, pool := range [][]Value{append([]Value{Null}, nums...), nums} {
		rng := rand.New(rand.NewSource(5))
		rel := NewRelation("t", NewSchema(Column{"k", KindNumber}, Column{"id", KindNumber}))
		for i := 0; i < 400; i++ {
			rel.MustAdd(pool[rng.Intn(len(pool))], NumV(float64(i)))
		}
		requireDocumentedNaNOrder(t, rel)
	}
}

func requireDocumentedNaNOrder(t *testing.T, rel *Relation) {
	t.Helper()
	// rank maps a key to its documented ascending position.
	rank := func(v Value) float64 {
		switch {
		case v.IsNull():
			return math.Inf(-1)
		case v.N != v.N:
			return math.Inf(1)
		}
		return math.Atan(v.N) // strictly increasing, finite for ±Inf
	}
	for _, desc := range []bool{false, true} {
		got, err := sortRelation(rel, []OrderKey{{Expr: mustExpr("k"), Desc: desc}})
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != rel.Len() {
			t.Fatalf("desc=%v: %d rows, want %d", desc, got.Len(), rel.Len())
		}
		for i := 1; i < got.Len(); i++ {
			a, b := got.Tuples[i-1], got.Tuples[i]
			ra, rb := rank(a[0]), rank(b[0])
			if desc {
				ra, rb = -ra, -rb
			}
			if ra > rb || (ra == rb && a[1].N > b[1].N) {
				t.Fatalf("desc=%v: rows %d,%d out of documented order: %v then %v", desc, i-1, i, a, b)
			}
		}
	}
}

// TestSortKeyErrorIsFirstInRowOrder: a failing key expression surfaces
// the error of the lowest failing row (and, within it, the first failing
// key).
func TestSortKeyErrorIsFirstInRowOrder(t *testing.T) {
	rel := NewRelation("t", NewSchema(Column{"a", KindNumber}, Column{"b", KindNumber}))
	for i := 0; i < 800; i++ {
		a := NumV(float64(i % 13))
		switch i {
		case 310:
			a = StrV("x") // a + b: arithmetic on string and number
		case 90, 700:
			a = BoolV(true) // a + b: arithmetic on bool and number
		}
		rel.MustAdd(a, NumV(1))
	}
	keys := []OrderKey{{Expr: mustExpr("b")}, {Expr: mustExpr("a + b"), Desc: true}, {Expr: mustExpr("-a")}}
	_, want := refSortRelation(rel, keys)
	if want == nil || !strings.Contains(want.Error(), "bool") {
		t.Fatalf("reference error = %v, want row 90's", want)
	}
	if _, err := sortRelation(rel, keys); err == nil || err.Error() != want.Error() {
		t.Fatalf("error = %v, want %v", err, want)
	}
}

// TestSortAllocsIndependentOfRows pins the kernel's allocation shape: a
// 10,000-row single-key sort through NewSort + Collect allocates a fixed
// handful of slices (key matrix, permutation, output, Collect's
// doublings) — measured 29 — not one key slice per row (10,019 before
// the kernel).
func TestSortAllocsIndependentOfRows(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	rel := sortBenchRel(10000)
	keys := []OrderKey{{Expr: sqlparse.Col("t", "revenue"), Desc: true}}
	allocs := testing.AllocsPerRun(5, func() {
		out, err := collect(NewSort(NewScan(rel), keys, nil), nil)
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != rel.Len() {
			t.Fatalf("rows = %d, want %d", out.Len(), rel.Len())
		}
	})
	t.Logf("10,000-row single-key sort: %.0f allocs", allocs)
	if allocs > 40 {
		t.Errorf("10,000-row sort allocates %.0f objects, budget 40", allocs)
	}
}
