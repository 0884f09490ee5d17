package relalg

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sqlparse"
)

func testRel(name string, cols string, rows ...[]Value) *Relation {
	var schema Schema
	for _, c := range strings.Split(cols, ",") {
		parts := strings.Split(strings.TrimSpace(c), ":")
		k := KindString
		if len(parts) > 1 && parts[1] == "num" {
			k = KindNumber
		}
		schema.Columns = append(schema.Columns, Column{Name: parts[0], Type: k})
	}
	r := NewRelation(name, schema)
	for _, row := range rows {
		r.MustAdd(row...)
	}
	return r
}

// collect drains an iterator tree into a relation. It takes a
// constructor's (Iterator, error) pair so fallible constructors compose:
// collect(NewHashJoin(...)); infallible ones pass a nil error.
func collect(it Iterator, err error) (*Relation, error) {
	if err != nil {
		return nil, err
	}
	return Collect(context.Background(), it, "")
}

// drain is collect for trees that cannot fail over valid inputs.
func drain(t testing.TB, it Iterator) *Relation {
	t.Helper()
	rel, err := collect(it, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// sameTuples reports bag equality of two relations' tuples, ignoring
// order.
func sameTuples(a, b *Relation) bool {
	return slices.Equal(tupleBag(a), tupleBag(b))
}

// tupleBag is r's tuples' full keys, sorted.
func tupleBag(r *Relation) []string {
	keys := make([]string, len(r.Tuples))
	for i, t := range r.Tuples {
		keys[i] = t.FullKey()
	}
	slices.Sort(keys)
	return keys
}

// union drains a ∪ b: UNION ALL when all is set, set UNION otherwise.
func union(a, b *Relation, all bool) (*Relation, error) {
	it, err := NewUnionAll(NewScan(a), NewScan(b))
	if err != nil || all {
		return collect(it, err)
	}
	return collect(NewDistinct(it), nil)
}

// figure2R1 builds the paper's relation R1 (qualified as rl).
func figure2R1() *Relation {
	return testRel("rl", "rl.cname, rl.revenue:num, rl.currency",
		[]Value{StrV("IBM"), NumV(100000000), StrV("USD")},
		[]Value{StrV("NTT"), NumV(1000000), StrV("JPY")},
	)
}

func figure2R2() *Relation {
	return testRel("r2", "r2.cname, r2.expenses:num",
		[]Value{StrV("IBM"), NumV(150000000)},
		[]Value{StrV("NTT"), NumV(5000000)},
	)
}

func expr(t *testing.T, src string) sqlparse.Expr {
	t.Helper()
	stmt, err := sqlparse.Parse("SELECT a FROM t WHERE " + src)
	if err != nil {
		t.Fatalf("bad test expression %q: %v", src, err)
	}
	return stmt.(*sqlparse.Select).Where
}

func TestValueBasics(t *testing.T) {
	if !NumV(3).Equal(NumV(3)) || NumV(3).Equal(NumV(4)) {
		t.Error("numeric equality broken")
	}
	if StrV("a").Equal(NumV(0)) {
		t.Error("cross-kind equality should be false")
	}
	if Null.Equal(Null) {
		t.Error("NULL = NULL must be false (SQL semantics)")
	}
	if c, ok := StrV("apple").Compare(StrV("banana")); !ok || c >= 0 {
		t.Error("string compare broken")
	}
	if _, ok := StrV("a").Compare(NumV(1)); ok {
		t.Error("cross-kind compare should be not-ok")
	}
	if NumV(1).Key() == StrV("1").Key() {
		t.Error("hash keys must distinguish kinds")
	}
}

func TestParseValue(t *testing.T) {
	v, err := ParseValue("3.5", KindNumber)
	if err != nil || v.N != 3.5 {
		t.Errorf("ParseValue number: %v %v", v, err)
	}
	if v, _ := ParseValue("", KindNumber); !v.IsNull() {
		t.Error("empty text should parse to NULL")
	}
	if _, err := ParseValue("abc", KindNumber); err == nil {
		t.Error("bad number accepted")
	}
	if v, err := ParseValue("TRUE", KindBool); err != nil || !v.B {
		t.Error("bool parse broken")
	}
}

func TestSchemaIndexQualified(t *testing.T) {
	s := NewSchema(Column{"rl.cname", KindString}, Column{"r2.cname", KindString}, Column{"r2.expenses", KindNumber})
	if s.Index("rl.cname") != 0 || s.Index("r2.expenses") != 2 {
		t.Error("exact lookup broken")
	}
	if s.Index("cname") != -1 {
		t.Error("ambiguous unqualified lookup should fail")
	}
	if s.Index("expenses") != 2 {
		t.Error("unique suffix lookup should succeed")
	}
}

func TestFilterPaperNaiveQuery(t *testing.T) {
	// The naive Q1 over Figure 2 data returns the empty answer — the
	// paper's motivating "incorrect" result.
	joined, err := collect(NewNestedLoop(NewScan(figure2R1()), figure2R2(), expr(t, "rl.cname = r2.cname")), nil)
	if err != nil {
		t.Fatal(err)
	}
	if joined.Len() != 2 {
		t.Fatalf("join size = %d, want 2", joined.Len())
	}
	res, err := collect(NewFilter(NewScan(joined), expr(t, "rl.revenue > r2.expenses")), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The paper: "the (empty) answer returned by executing Q1 is clearly
	// not a 'correct' answer". IBM: 1e8 < 1.5e8; NTT naively 1e6 < 5e6.
	if res.Len() != 0 {
		t.Errorf("naive Q1 should return the empty answer, got:\n%s", res)
	}
}

func TestProjectComputed(t *testing.T) {
	r := figure2R1()
	out, err := collect(NewProject(NewScan(r), []ProjectItem{
		{Name: "cname", Expr: sqlparse.Col("rl", "cname")},
		{Name: "rev_k", Expr: sqlparse.Bin("/", sqlparse.Col("rl", "revenue"), sqlparse.Num(1000))},
	}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema.Columns[1].Type != KindNumber {
		t.Error("computed column type not inferred")
	}
	if out.Tuples[0][1].N != 100000 {
		t.Errorf("rev_k = %v", out.Tuples[0][1])
	}
}

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	a := figure2R1()
	b := figure2R2()
	nl, err := collect(NewNestedLoop(NewScan(a), b, expr(t, "rl.cname = r2.cname")), nil)
	if err != nil {
		t.Fatal(err)
	}
	hj, err := collect(NewHashJoin(NewScan(a), NewScan(b), []string{"rl.cname"}, []string{"r2.cname"}, nil, false, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !sameTuples(nl, hj) {
		t.Errorf("hash join != nested loop:\n%s\nvs\n%s", nl, hj)
	}
}

// Property: hash join equals nested-loop join on random data.
func TestJoinEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := testRel("a", "a.k:num, a.v:num")
		b := testRel("b", "b.k:num, b.w:num")
		for i := 0; i < r.Intn(20); i++ {
			a.MustAdd(NumV(float64(r.Intn(5))), NumV(float64(r.Intn(100))))
		}
		for i := 0; i < r.Intn(20); i++ {
			b.MustAdd(NumV(float64(r.Intn(5))), NumV(float64(r.Intn(100))))
		}
		pred := sqlparse.Bin("=", sqlparse.Col("a", "k"), sqlparse.Col("b", "k"))
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
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: selection cascade — Filter(p AND q) == Filter(p) then Filter(q).
func TestSelectionCascadeProperty(t *testing.T) {
	p := sqlparse.Bin(">", sqlparse.Col("a", "v"), sqlparse.Num(30))
	q := sqlparse.Bin("<", sqlparse.Col("a", "v"), sqlparse.Num(70))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := testRel("a", "a.v:num")
		for i := 0; i < r.Intn(40); i++ {
			a.MustAdd(NumV(float64(r.Intn(100))))
		}
		both, err := collect(NewFilter(NewScan(a), sqlparse.Bin("AND", p, q)), nil)
		if err != nil {
			return false
		}
		first, err := collect(NewFilter(NewScan(a), p), nil)
		if err != nil {
			return false
		}
		second, err := collect(NewFilter(NewScan(first), q), nil)
		if err != nil {
			return false
		}
		return sameTuples(both, second)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: join is commutative up to column order.
func TestJoinCommutativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := testRel("a", "a.k:num")
		b := testRel("b", "b.k:num")
		for i := 0; i < r.Intn(15); i++ {
			a.MustAdd(NumV(float64(r.Intn(4))))
		}
		for i := 0; i < r.Intn(15); i++ {
			b.MustAdd(NumV(float64(r.Intn(4))))
		}
		pred := sqlparse.Bin("=", sqlparse.Col("a", "k"), sqlparse.Col("b", "k"))
		ab, err := collect(NewNestedLoop(NewScan(a), b, pred), nil)
		if err != nil {
			return false
		}
		ba, err := collect(NewNestedLoop(NewScan(b), a, pred), nil)
		if err != nil {
			return false
		}
		// Project both to a.k to compare modulo column order.
		pa, err := collect(NewProject(NewScan(ab), []ProjectItem{{Name: "k", Expr: sqlparse.Col("a", "k")}}), nil)
		if err != nil {
			return false
		}
		pb, err := collect(NewProject(NewScan(ba), []ProjectItem{{Name: "k", Expr: sqlparse.Col("a", "k")}}), nil)
		if err != nil {
			return false
		}
		return sameTuples(pa, pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnionSetVsAll(t *testing.T) {
	a := testRel("a", "x:num", []Value{NumV(1)}, []Value{NumV(2)})
	b := testRel("b", "x:num", []Value{NumV(2)}, []Value{NumV(3)})
	all, err := union(a, b, true)
	if err != nil {
		t.Fatal(err)
	}
	if all.Len() != 4 {
		t.Errorf("UNION ALL len = %d, want 4", all.Len())
	}
	set, err := union(a, b, false)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 3 {
		t.Errorf("UNION len = %d, want 3", set.Len())
	}
	if _, err := union(a, testRel("c", "x:num, y:num"), true); err == nil {
		t.Error("arity mismatch accepted")
	}
}

// Property: |A UNION ALL B| = |A| + |B| and |A UNION B| <= that, >= max.
func TestUnionCardinalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := testRel("a", "x:num")
		b := testRel("b", "x:num")
		for i := 0; i < r.Intn(20); i++ {
			a.MustAdd(NumV(float64(r.Intn(6))))
		}
		for i := 0; i < r.Intn(20); i++ {
			b.MustAdd(NumV(float64(r.Intn(6))))
		}
		all, err := union(a, b, true)
		if err != nil {
			return false
		}
		set, err := union(a, b, false)
		if err != nil {
			return false
		}
		max := a.Len()
		if b.Len() > max {
			max = b.Len()
		}
		return all.Len() == a.Len()+b.Len() && set.Len() <= all.Len() &&
			set.Len() >= drain(t, NewDistinct(NewScan(a))).Len() && set.Len() >= drain(t, NewDistinct(NewScan(b))).Len() && set.Len() >= 0 && max >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSortAndLimit(t *testing.T) {
	r := testRel("t", "t.n, t.v:num",
		[]Value{StrV("b"), NumV(2)},
		[]Value{StrV("a"), NumV(3)},
		[]Value{StrV("c"), NumV(1)},
	)
	sorted, err := collect(NewSort(NewScan(r), []OrderKey{{Expr: sqlparse.Col("t", "v"), Desc: true}}, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sorted.Tuples[0][0].S != "a" || sorted.Tuples[2][0].S != "c" {
		t.Errorf("sort order wrong: %s", sorted)
	}
	top := drain(t, NewLimit(NewScan(sorted), 2))
	if top.Len() != 2 || top.Tuples[0][0].S != "a" {
		t.Errorf("limit wrong: %s", top)
	}
	if drain(t, NewLimit(NewScan(sorted), -1)).Len() != 3 {
		t.Error("Limit(-1) should keep all")
	}
}

func TestGroupByAggregates(t *testing.T) {
	r := testRel("s", "s.grp, s.v:num",
		[]Value{StrV("x"), NumV(1)},
		[]Value{StrV("x"), NumV(3)},
		[]Value{StrV("y"), NumV(10)},
	)
	items := []AggItem{
		{Name: "grp", Expr: sqlparse.Col("s", "grp")},
		{Name: "cnt", Expr: &sqlparse.FuncCall{Name: "COUNT", Star: true}},
		{Name: "total", Expr: &sqlparse.FuncCall{Name: "SUM", Args: []sqlparse.Expr{sqlparse.Col("s", "v")}}},
		{Name: "avg", Expr: &sqlparse.FuncCall{Name: "AVG", Args: []sqlparse.Expr{sqlparse.Col("s", "v")}}},
		{Name: "mx", Expr: &sqlparse.FuncCall{Name: "MAX", Args: []sqlparse.Expr{sqlparse.Col("s", "v")}}},
	}
	out, err := collect(NewGroupBy(NewScan(r), []sqlparse.Expr{sqlparse.Col("s", "grp")}, items, nil, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("groups = %d, want 2", out.Len())
	}
	x := out.Tuples[0]
	if x[0].S != "x" || x[1].N != 2 || x[2].N != 4 || x[3].N != 2 || x[4].N != 3 {
		t.Errorf("group x = %v", x)
	}
}

// TestGroupByCopiesFirstRows: GROUP BY marks its input transient, so the
// projection below it recycles its arena between batches; every group's
// first row, which a non-aggregate item reads, must be the grouping's own
// copy. 3,000 rows in 1,500 groups span three batches, so groups first
// seen in the first batch outlive its arena.
func TestGroupByCopiesFirstRows(t *testing.T) {
	r := testRel("s", "s.grp, s.v:num")
	const groups = 1500
	for i := range 2 * groups {
		r.MustAdd(StrV(fmt.Sprintf("g%04d", i%groups)), NumV(float64(i)))
	}
	proj := NewProject(NewScan(r), []ProjectItem{
		{Name: "grp", Expr: sqlparse.Col("s", "grp")},
		{Name: "v", Expr: sqlparse.Col("s", "v")},
	})
	items := []AggItem{
		{Name: "grp", Expr: sqlparse.Col("", "grp")},
		{Name: "first", Expr: sqlparse.Col("", "v")},
		{Name: "total", Expr: &sqlparse.FuncCall{Name: "SUM", Args: []sqlparse.Expr{sqlparse.Col("", "v")}}},
	}
	out := drain(t, NewGroupBy(proj, []sqlparse.Expr{sqlparse.Col("", "grp")}, items, nil, nil))
	if out.Len() != groups {
		t.Fatalf("groups = %d, want %d", out.Len(), groups)
	}
	for i, row := range out.Tuples {
		if want := fmt.Sprintf("g%04d", i); row[0].S != want || row[1].N != float64(i) || row[2].N != float64(2*i+groups) {
			t.Fatalf("group %d = %v, want [%s %d %d]", i, row, want, i, 2*i+groups)
		}
	}
}

func TestGroupByHaving(t *testing.T) {
	r := testRel("s", "s.grp, s.v:num",
		[]Value{StrV("x"), NumV(1)},
		[]Value{StrV("x"), NumV(3)},
		[]Value{StrV("y"), NumV(10)},
	)
	items := []AggItem{{Name: "grp", Expr: sqlparse.Col("s", "grp")}}
	having := sqlparse.Bin(">", &sqlparse.FuncCall{Name: "COUNT", Star: true}, sqlparse.Num(1))
	out, err := collect(NewGroupBy(NewScan(r), []sqlparse.Expr{sqlparse.Col("s", "grp")}, items, having, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Tuples[0][0].S != "x" {
		t.Errorf("having result: %s", out)
	}
}

func TestGlobalAggregateOnEmpty(t *testing.T) {
	r := testRel("s", "s.v:num")
	items := []AggItem{
		{Name: "cnt", Expr: &sqlparse.FuncCall{Name: "COUNT", Star: true}},
		{Name: "sum", Expr: &sqlparse.FuncCall{Name: "SUM", Args: []sqlparse.Expr{sqlparse.Col("s", "v")}}},
	}
	out, err := collect(NewGroupBy(NewScan(r), nil, items, nil, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Tuples[0][0].N != 0 || !out.Tuples[0][1].IsNull() {
		t.Errorf("global aggregate on empty = %s", out)
	}
}

func TestEvalNullSemantics(t *testing.T) {
	r := testRel("t", "t.a:num, t.b:num", []Value{Null, NumV(1)})
	for _, src := range []string{"t.a = t.b", "t.a <> t.b", "t.a < t.b", "t.a = t.a"} {
		ok, err := CompileBool(expr(t, src), r.Schema)(r.Tuples[0])
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Errorf("%s with NULL should be false", src)
		}
	}
	ok, err := CompileBool(expr(t, "t.a IS NULL"), r.Schema)(r.Tuples[0])
	if err != nil || !ok {
		t.Errorf("IS NULL failed: %v %v", ok, err)
	}
	v, err := Compile(expr(t, "t.a + t.b"), r.Schema)(r.Tuples[0])
	if err != nil || !v.IsNull() {
		t.Errorf("NULL arithmetic = %v, %v; want NULL", v, err)
	}
}

func TestEvalErrors(t *testing.T) {
	r := testRel("t", "t.a:num", []Value{NumV(1)})
	if _, err := Compile(expr(t, "t.zzz = 1"), r.Schema)(r.Tuples[0]); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := Compile(expr(t, "t.a / 0 > 1"), r.Schema)(r.Tuples[0]); err == nil {
		t.Error("division by zero accepted")
	}
}

func TestRelationString(t *testing.T) {
	s := figure2R1().String()
	if !strings.Contains(s, "rl.cname") || !strings.Contains(s, "NTT") {
		t.Errorf("table rendering:\n%s", s)
	}
}

func TestDistinct(t *testing.T) {
	r := testRel("t", "x:num", []Value{NumV(1)}, []Value{NumV(1)}, []Value{NumV(2)})
	if drain(t, NewDistinct(NewScan(r))).Len() != 2 {
		t.Error("distinct failed")
	}
}

func TestQualify(t *testing.T) {
	r := testRel("r1", "cname, revenue:num")
	q := r.Qualify("rl")
	if q.Schema.Columns[0].Name != "rl.cname" {
		t.Errorf("qualify: %v", q.Schema.Names())
	}
	// Already-qualified names stay.
	q2 := q.Qualify("zz")
	if q2.Schema.Columns[0].Name != "rl.cname" {
		t.Errorf("requalify changed name: %v", q2.Schema.Names())
	}
}
