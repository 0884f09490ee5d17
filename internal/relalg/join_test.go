package relalg

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sqlparse"
)

// Property: the hash join agrees with the nested-loop join (the
// reference), including on duplicate keys and NULL keys (which never
// join).
func TestThreeJoinsAgreeProperty(t *testing.T) {
	pred := sqlparse.Bin("=", sqlparse.Col("a", "k"), sqlparse.Col("b", "k"))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := testRel("a", "a.k:num, a.v:num")
		b := testRel("b", "b.k:num, b.w:num")
		addRow := func(rel *Relation) {
			key := Value{}
			if r.Intn(5) > 0 { // 20% NULL keys
				key = NumV(float64(r.Intn(4)))
			}
			rel.MustAdd(key, NumV(float64(r.Intn(100))))
		}
		for i := 0; i < r.Intn(25); i++ {
			addRow(a)
		}
		for i := 0; i < r.Intn(25); i++ {
			addRow(b)
		}
		nl, err := collect(NewNestedLoop(NewScan(a), b, pred), nil)
		if err != nil {
			return false
		}
		hj, err := collect(NewHashJoin(NewScan(a), NewScan(b), []string{"a.k"}, []string{"b.k"}, nil, false, nil))
		if err != nil {
			return false
		}
		return sameTuples(nl, hj)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// NULL and NaN (either payload) keys never join — joins follow
// Value.Equal, as the nested loop does — on one key column and on two.
// Expected rows are (a.v, b.w) pairs in probe order, matches in
// build-insertion order.
func TestHashJoinNaNAndNullKeys(t *testing.T) {
	nan, nan2 := NumV(math.NaN()), NumV(math.Float64frombits(0xFFF8000000000ABC))
	a := testRel("a", "a.k:num, a.j:num, a.v:num",
		[]Value{Null, NumV(1), NumV(0)},
		[]Value{nan, NumV(1), NumV(1)},
		[]Value{nan2, nan, NumV(2)},
		[]Value{NumV(1), Null, NumV(3)},
		[]Value{NumV(1), NumV(2), NumV(4)},
		[]Value{NumV(2), nan, NumV(5)})
	b := testRel("b", "b.k:num, b.j:num, b.w:num",
		[]Value{nan, NumV(1), NumV(0)},
		[]Value{Null, NumV(1), NumV(1)},
		[]Value{NumV(1), NumV(2), NumV(2)},
		[]Value{nan2, nan2, NumV(3)},
		[]Value{NumV(0), NumV(1), NumV(4)},
		[]Value{NumV(1), Null, NumV(5)},
		[]Value{NumV(2), NumV(0), NumV(6)})
	joins := []struct {
		name  string
		build func(l, r Iterator, lk, rk []string) (Iterator, error)
	}{
		{"serial", func(l, r Iterator, lk, rk []string) (Iterator, error) {
			return NewHashJoin(l, r, lk, rk, nil, false, nil)
		}},
	}
	cases := []struct {
		name   string
		lk, rk []string
		want   [][2]int
	}{
		{"one key", []string{"a.k"}, []string{"b.k"},
			[][2]int{{3, 2}, {3, 5}, {4, 2}, {4, 5}, {5, 6}}},
		{"two keys", []string{"a.k", "a.j"}, []string{"b.k", "b.j"},
			[][2]int{{4, 2}}},
	}
	for _, j := range joins {
		for _, c := range cases {
			t.Run(j.name+"/"+c.name, func(t *testing.T) {
				rel, err := collect(j.build(NewScan(a), NewScan(b), c.lk, c.rk))
				if err != nil {
					t.Fatal(err)
				}
				var got [][2]int
				for _, row := range rel.Tuples {
					got = append(got, [2]int{int(row[2].N), int(row[5].N)})
				}
				if !slices.Equal(got, c.want) {
					t.Errorf("joined (a.v, b.w) = %v, want %v", got, c.want)
				}
			})
		}
	}
}

// TestHashJoinSignedZeroKeys: −0 = 0 under Value.Equal, so a key of 0
// joins a key of −0 whichever side builds, exactly as the nested loop
// joins them.
func TestHashJoinSignedZeroKeys(t *testing.T) {
	negZero := NumV(math.Copysign(0, -1))
	a := testRel("a", "a.k:num, a.v:num", []Value{NumV(0), NumV(1)}, []Value{negZero, NumV(2)})
	b := testRel("b", "b.k:num, b.w:num", []Value{negZero, NumV(3)})
	pred := sqlparse.Bin("=", sqlparse.Col("a", "k"), sqlparse.Col("b", "k"))
	nl, err := collect(NewNestedLoop(NewScan(a), b, pred), nil)
	if err != nil {
		t.Fatal(err)
	}
	if nl.Len() != 2 {
		t.Fatalf("nested loop joined %d rows, want 2", nl.Len())
	}
	for _, buildLeft := range []bool{false, true} {
		hj, err := collect(NewHashJoin(NewScan(a), NewScan(b), []string{"a.k"}, []string{"b.k"}, nil, buildLeft, nil))
		if err != nil {
			t.Fatal(err)
		}
		if !sameTuples(nl, hj) {
			t.Errorf("buildLeft=%v: hash join %v, nested loop %v", buildLeft, hj.Tuples, nl.Tuples)
		}
	}
}

// TestDistinctSignedZero: DISTINCT treats −0 and 0 as one value (IS NOT
// DISTINCT FROM) and keeps the first occurrence.
func TestDistinctSignedZero(t *testing.T) {
	negZero := NumV(math.Copysign(0, -1))
	rel := testRel("r", "r.k:num", []Value{negZero}, []Value{NumV(0)}, []Value{negZero})
	d, err := collect(NewDistinct(NewScan(rel)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 || !math.Signbit(d.Tuples[0][0].N) {
		t.Errorf("DISTINCT {-0, 0, -0} = %v, want the one first row -0", d.Tuples)
	}
}

// TestGroupBySignedZero: GROUP BY puts −0 and 0 in one group.
func TestGroupBySignedZero(t *testing.T) {
	negZero := NumV(math.Copysign(0, -1))
	rel := testRel("r", "r.k:num", []Value{negZero}, []Value{NumV(0)}, []Value{negZero})
	items := []AggItem{{Name: "k", Expr: sqlparse.Col("r", "k")}, {Name: "n", Expr: &sqlparse.FuncCall{Name: "COUNT", Star: true}}}
	g, err := collect(NewGroupBy(NewScan(rel), []sqlparse.Expr{sqlparse.Col("r", "k")}, items, nil, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 || g.Tuples[0][1].N != 3 {
		t.Errorf("GROUP BY over {-0, 0, -0} = %v, want one group of 3", g.Tuples)
	}
}
