package relalg

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/sqlparse"
)

// orderValues are the numbers the comparison rule must get right: NULL,
// two NaN payloads, both zeros and a plain number.
var orderValues = []Value{
	Null,
	NumV(math.NaN()),
	NumV(math.Float64frombits(0xFFF8000000000ABC)),
	NumV(math.Copysign(0, -1)),
	NumV(0),
	NumV(1),
}

// TestCompareNaN holds Compare and the six comparison operators to the
// rule: a NULL or a NaN on either side makes "<", "<=", ">" and ">="
// false and Compare not ok, "=" is IEEE equality on non-NULL numbers, and
// "<>" is its negation unless a side is NULL.
func TestCompareNaN(t *testing.T) {
	schema := NewSchema(Column{"t.a", KindNumber}, Column{"t.b", KindNumber})
	ieee := map[string]func(a, b float64) bool{
		"=":  func(a, b float64) bool { return a == b },
		"<>": func(a, b float64) bool { return a != b },
		"<":  func(a, b float64) bool { return a < b },
		"<=": func(a, b float64) bool { return a <= b },
		">":  func(a, b float64) bool { return a > b },
		">=": func(a, b float64) bool { return a >= b },
	}
	for _, l := range orderValues {
		for _, r := range orderValues {
			null := l.IsNull() || r.IsNull()
			c, ok := l.Compare(r)
			wantOK := !null && !math.IsNaN(l.N) && !math.IsNaN(r.N)
			if ok != wantOK || ok && (c < 0) != (l.N < r.N) || ok && (c > 0) != (l.N > r.N) {
				t.Errorf("Compare(%v, %v) = %d, %v", l, r, c, ok)
			}
			for op, f := range ieee {
				got, err := CompileBool(sqlparse.Bin(op, sqlparse.Col("t", "a"), sqlparse.Col("t", "b")), schema)(Tuple{l, r})
				if want := !null && f(l.N, r.N); err != nil || got != want {
					t.Errorf("%v %s %v = %v, %v; want %v", l, op, r, got, err, want)
				}
			}
		}
	}
}

// TestMinMaxNaN: MIN and MAX order by SortKey, NaN above every number,
// so their answer over {NaN, 1, 7} is the same in every input order.
func TestMinMaxNaN(t *testing.T) {
	vals := []Value{NumV(math.NaN()), NumV(1), NumV(7)}
	items := []AggItem{
		{Name: "lo", Expr: &sqlparse.FuncCall{Name: "MIN", Args: []sqlparse.Expr{sqlparse.Col("s", "v")}}},
		{Name: "hi", Expr: &sqlparse.FuncCall{Name: "MAX", Args: []sqlparse.Expr{sqlparse.Col("s", "v")}}},
	}
	for rot := range vals {
		r := testRel("s", "s.v:num")
		for i := range vals {
			r.MustAdd(vals[(rot+i)%len(vals)])
		}
		out, err := collect(NewGroupBy(NewScan(r), nil, items, nil, nil), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Tuples[0]; got[0].N != 1 || !math.IsNaN(got[1].N) {
			t.Errorf("rotation %d: MIN, MAX = %v, want [1 NaN]", rot, got)
		}
	}
	mixed := testRel("s", "s.v:num", []Value{NumV(1)}, []Value{StrV("a")})
	if _, err := collect(NewGroupBy(NewScan(mixed), nil, items[:1], nil, nil), nil); err == nil {
		t.Error("MIN over a number and a string succeeded, want an incomparable-values error")
	}
}

// TestGroupByAggregateExpressions: operators over aggregates, in items and
// HAVING, and the errors a grouping can meet, each on the group that
// reaches it.
func TestGroupByAggregateExpressions(t *testing.T) {
	v := sqlparse.Col("s", "v")
	call := func(name string, args ...sqlparse.Expr) *sqlparse.FuncCall {
		return &sqlparse.FuncCall{Name: name, Args: args}
	}
	countStar := &sqlparse.FuncCall{Name: "COUNT", Star: true}
	r := testRel("s", "s.grp, s.v:num",
		[]Value{StrV("x"), NumV(1)},
		[]Value{StrV("x"), NumV(4)},
		[]Value{StrV("y"), NumV(10)},
	)
	keys := []sqlparse.Expr{sqlparse.Col("s", "grp")}
	items := []AggItem{
		{Name: "grp", Expr: sqlparse.Col("s", "grp")},
		{Name: "plus", Expr: sqlparse.Bin("+", call("SUM", v), sqlparse.Num(1))},
		{Name: "neg", Expr: &sqlparse.UnaryExpr{Op: "-", X: call("MIN", v)}},
		{Name: "spread", Expr: sqlparse.Bin("-", call("MAX", v), call("MIN", v))},
		{Name: "avg", Expr: call("AVG", v)},
	}
	having := sqlparse.Bin("AND", sqlparse.Bin(">", countStar, sqlparse.Num(1)), sqlparse.Bin("<", call("SUM", v), sqlparse.Num(10)))
	out, err := collect(NewGroupBy(NewScan(r), keys, items, having, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || fmt.Sprint(out.Tuples[0]) != "[x 6 -1 3 2.5]" {
		t.Errorf("grouped = %s, want one row [x 6 -1 3 2.5]", out)
	}

	// Over no rows the global group still stands: aggregates give their
	// identity values, a constant stays a constant, a column is NULL, and
	// a bad column under an aggregate is never reached.
	empty := testRel("s", "s.v:num")
	global := []AggItem{
		{Name: "cnt", Expr: sqlparse.Bin("+", countStar, sqlparse.Num(1))},
		{Name: "bad", Expr: call("SUM", sqlparse.Col("s", "zzz"))},
		{Name: "col", Expr: sqlparse.Bin("+", v, countStar)},
	}
	out, err = collect(NewGroupBy(NewScan(empty), nil, global, nil, nil), nil)
	if err != nil || out.Len() != 1 || fmt.Sprint(out.Tuples[0]) != "[1 NULL NULL]" {
		t.Errorf("global over no rows = %v, %v; want [1 NULL NULL]", out, err)
	}
	for _, it := range []sqlparse.Expr{
		call("SUM", sqlparse.Col("s", "zzz")),
		call("SUM", sqlparse.Col("s", "grp")),
		sqlparse.Bin("/", call("SUM", v), sqlparse.Num(0)),
		call("MEDIAN", v),
		&sqlparse.FuncCall{Name: "SUM", Star: true},
	} {
		if _, err := collect(NewGroupBy(NewScan(r), keys, []AggItem{{Name: "e", Expr: it}}, nil, nil), nil); err == nil {
			t.Errorf("%s succeeded, want an error", it)
		}
	}
}

// TestGroupByErrorOrder pins which error GROUP BY reports when several
// are due: keys and aggregate arguments are evaluated row by row together,
// so the first error met in row order wins. AND and OR over aggregates
// short-circuit as they do over a row, so a right side the left decides
// is never evaluated.
func TestGroupByErrorOrder(t *testing.T) {
	keys := []sqlparse.Expr{sqlparse.Bin("/", sqlparse.Num(1), sqlparse.Col("s", "k"))}
	sum := &sqlparse.FuncCall{Name: "SUM", Args: []sqlparse.Expr{sqlparse.Col("s", "v")}}
	items := []AggItem{{Name: "sum", Expr: sum}}
	badSum := []Value{NumV(1), StrV("x")} // SUM over a string
	badKey := []Value{NumV(0), NumV(2)}   // 1 / 0
	for _, tc := range []struct {
		rows [][]Value
		want string
	}{
		{[][]Value{badSum, badKey}, "non-numeric"},
		{[][]Value{badKey, badSum}, "division by zero"},
	} {
		r := testRel("s", "s.k:num, s.v", tc.rows...)
		_, err := collect(NewGroupBy(NewScan(r), keys, items, nil, nil), nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("rows %v: err = %v, want one naming %q", tc.rows, err, tc.want)
		}
	}

	r := testRel("s", "s.k:num, s.v", []Value{NumV(1), NumV(2)})
	countStar := &sqlparse.FuncCall{Name: "COUNT", Star: true}
	for _, having := range []sqlparse.Expr{
		sqlparse.Bin("AND", sqlparse.Bin(">", countStar, sqlparse.Num(5)), sqlparse.Bin(">", sqlparse.Bin("/", sum, sqlparse.Num(0)), sqlparse.Num(1))),
		sqlparse.Bin("OR", sqlparse.Bin("<", countStar, sqlparse.Num(5)), sqlparse.Bin(">", sqlparse.Bin("/", sum, sqlparse.Num(0)), sqlparse.Num(1))),
	} {
		if _, err := collect(NewGroupBy(NewScan(r), keys, items, having, nil), nil); err != nil {
			t.Errorf("HAVING %s: %v, want the right side skipped", having, err)
		}
	}
}
