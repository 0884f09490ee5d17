package relalg

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/sqlparse"
)

// NewNestedLoop joins outer against inner on pred (nil: the cross
// product) as a keyless hash join: its one chain holds inner in order,
// so each outer row meets every inner row in turn.
func NewNestedLoop(outer Iterator, inner *Relation, pred sqlparse.Expr) *HashJoinIter {
	hj, _ := NewHashJoin(outer, NewScan(inner), nil, nil, pred, false, nil)
	return hj
}

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

// TestFoldedJoinMatchesProjection: a join with a select list folded into
// it (FuseProject) emits, row for row and in order, what a projection
// over the same join emits — keyed and keyless, on either build side,
// with and without a residual that rejects pairs the keys admit, at any
// batch size — under the projection's schema, and an item that fails
// fails the join.
func TestFoldedJoinMatchesProjection(t *testing.T) {
	items := []ProjectItem{{Name: "vw", Expr: mustExpr("a.v + b.w")}, {Name: "k", Expr: mustExpr("b.k")}}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b := testRel("a", "a.k:num, a.v:num"), testRel("b", "b.k:num, b.w:num")
		for _, rel := range []*Relation{a, b} {
			for i := rng.Intn(40); i > 0; i-- {
				rel.MustAdd(NumV(float64(rng.Intn(5))), NumV(float64(rng.Intn(100))))
			}
		}
		for _, keys := range [][]string{{"k"}, nil} {
			for _, residual := range []sqlparse.Expr{nil, mustExpr("a.v < b.w")} {
				for _, buildLeft := range []bool{false, true} {
					join := func() *HashJoinIter {
						var lk, rk []string
						for _, k := range keys {
							lk, rk = append(lk, "a."+k), append(rk, "b."+k)
						}
						hj, err := NewHashJoin(NewScan(a), NewScan(b), lk, rk, residual, buildLeft, nil)
						if err != nil {
							t.Fatal(err)
						}
						return hj
					}
					label := fmt.Sprintf("seed %d keys %v residual %v buildLeft %v", seed, keys, residual, buildLeft)
					max := 1 + rng.Intn(9)
					proj := NewProject(join(), items)
					want := drainOrdered(t, proj, max)
					folded := join()
					var n atomic.Int64
					if !FuseProject(NewCounted(folded, &n), items) {
						t.Fatalf("%s: FuseProject did not reach the join under its counter", label)
					}
					if got, want := folded.Schema(), proj.Schema(); !slices.Equal(got.Columns, want.Columns) {
						t.Fatalf("%s: folded schema %v, want %v", label, got, want)
					}
					requireSameRows(t, label, want, drainOrdered(t, folded, max))
				}
			}
		}
	}
	a0, b0 := testRel("a", "a.v:num", []Value{NumV(1)}), testRel("b", "b.w:num", []Value{NumV(0)})
	hj, err := NewHashJoin(NewScan(a0), NewScan(b0), nil, nil, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	FuseProject(hj, []ProjectItem{{Name: "q", Expr: mustExpr("a.v / b.w")}})
	if _, err := collect(hj, nil); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("a failing item: err = %v, want division by zero", err)
	}
	if _, err := NewHashJoin(NewScan(a0), NewScan(b0), []string{"a.v"}, nil, nil, false, nil); err == nil {
		t.Fatal("NewHashJoin took key lists of different lengths")
	}
}

// TestFuseProjectThroughDeferred: a DeferredIter takes the fold at once
// (its schema becomes the projection's) and hands it to the child it
// builds at Open; a child with no join to fold into is projected
// instead. Anything else — a filter above the join — refuses the fold.
func TestFuseProjectThroughDeferred(t *testing.T) {
	a := testRel("a", "a.k:num, a.v:num", []Value{NumV(1), NumV(10)}, []Value{NumV(2), NumV(20)})
	b := testRel("b", "b.k:num, b.w:num", []Value{NumV(1), NumV(5)}, []Value{NumV(1), NumV(6)})
	items := []ProjectItem{{Name: "vw", Expr: mustExpr("a.v + b.w")}}
	join := func() *HashJoinIter {
		hj, err := NewHashJoin(NewScan(a), NewScan(b), []string{"a.k"}, []string{"b.k"}, nil, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		return hj
	}
	want := drain(t, NewProject(join(), items))
	var built *HashJoinIter
	d := NewDeferred(join().Schema(), func(context.Context) (Iterator, error) { built = join(); return built, nil })
	if !FuseProject(d, items) {
		t.Fatal("FuseProject did not take the DeferredIter")
	}
	if got := d.Schema(); !slices.Equal(got.Columns, want.Schema.Columns) {
		t.Fatalf("deferred schema %v, want %v", got, want.Schema)
	}
	sameRows(t, "deferred join", drain(t, d), want)
	if built.fns == nil {
		t.Fatal("the join built at Open was not folded")
	}
	flat := NewDeferred(a.Schema, func(context.Context) (Iterator, error) { return NewScan(a), nil })
	scanItems := []ProjectItem{{Name: "v2", Expr: mustExpr("a.v * 2")}}
	FuseProject(flat, scanItems)
	sameRows(t, "deferred scan", drain(t, flat), drain(t, NewProject(NewScan(a), scanItems)))
	if FuseProject(NewFilter(join(), mustExpr("a.v > 0")), items) {
		t.Fatal("FuseProject folded through a filter")
	}
}
