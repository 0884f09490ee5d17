// Package refeval is the engine's referee: a deliberately naive evaluator
// of the sqlparse AST, a generator of random sources and queries, and a
// fuzz target holding the engine's answers to the evaluator's under every
// combination of the engine's knobs.
//
// This file is the evaluator. It reads each source relation whole through
// wrapper.Query and evaluates a statement by nested loops over the FROM
// list, linear scans for grouping and duplicate elimination, and a stable
// sort for ORDER BY. It shares no code with the engine: it uses relalg
// only for the value and tuple types (TestEvaluatorUsesOnlyValueTypes
// holds it to that), and no planner, iterator, batching or hash key.
//
// Equality follows the engine's stated modes: "=" and join predicates
// follow SQL (NULL and NaN equal nothing, −0 = 0), while DISTINCT, GROUP
// BY and UNION treat two values as the same when they are NOT DISTINCT
// (NULL = NULL, NaN = NaN, −0 = 0). Order follows one rule: "<", "<=",
// ">" and ">=" are false when either side is NULL or NaN, and MIN, MAX
// and ORDER BY use one total order with NULL first and NaN above every
// number (PostgreSQL's order).
package refeval

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/relalg"
	"repro/internal/sqlparse"
	"repro/internal/wrapper"
)

// answer is a column list and the rows under it.
type answer struct {
	cols []string
	rows []relalg.Tuple
}

// sourceFor returns the wrapper serving a relation.
type sourceFor func(relation string) (wrapper.Wrapper, error)

// evaluate answers stmt, reading every relation it names through src.
func evaluate(ctx context.Context, src sourceFor, stmt sqlparse.Statement) (answer, error) {
	switch s := stmt.(type) {
	case *sqlparse.Select:
		return evalSelect(ctx, src, s)
	case *sqlparse.Union:
		l, err := evaluate(ctx, src, s.Left)
		if err != nil {
			return answer{}, err
		}
		r, err := evaluate(ctx, src, s.Right)
		if err != nil {
			return answer{}, err
		}
		out := answer{cols: l.cols, rows: append(append([]relalg.Tuple(nil), l.rows...), r.rows...)}
		if !s.All {
			out.rows = dedup(out.rows)
		}
		return out, nil
	}
	return answer{}, fmt.Errorf("refeval: cannot evaluate %T", stmt)
}

func evalSelect(ctx context.Context, src sourceFor, sel *sqlparse.Select) (answer, error) {
	var cols []string
	var tables [][]relalg.Tuple
	width := []int{0} // width[i]: columns bound before table i
	for _, tr := range sel.From {
		w, err := src(tr.Table)
		if err != nil {
			return answer{}, err
		}
		rel, err := w.Query(ctx, wrapper.SourceQuery{Relation: tr.Table})
		if err != nil {
			return answer{}, err
		}
		for _, c := range rel.Schema.Columns {
			cols = append(cols, tr.Binding()+"."+c.Name)
		}
		tables = append(tables, rel.Tuples)
		width = append(width, len(cols))
	}
	// Each WHERE conjunct is checked at the first loop depth binding all
	// of its columns, so the nested loops do not enumerate the whole
	// cross product of a large relation before filtering it.
	checks := make([][]expr, len(tables))
	for _, p := range sqlparse.Conjuncts(sel.Where) {
		depth := 0
		for _, c := range sqlparse.ColumnsOf(p) {
			i, err := resolve(cols, c)
			if err != nil {
				return answer{}, err
			}
			for i >= width[depth+1] {
				depth++
			}
		}
		fn, err := compile(p, cols)
		if err != nil {
			return answer{}, err
		}
		checks[depth] = append(checks[depth], fn)
	}
	var joined []relalg.Tuple
	var loop func(d int, acc relalg.Tuple)
	loop = func(d int, acc relalg.Tuple) {
		if d == len(tables) {
			joined = append(joined, append(relalg.Tuple(nil), acc...))
			return
		}
	rows:
		for _, r := range tables[d] {
			row := append(acc, r...)
			for _, chk := range checks[d] {
				if v := chk(row); v.K != relalg.KindBool || !v.B {
					continue rows
				}
			}
			loop(d+1, row)
		}
	}
	loop(0, nil)

	out := answer{}
	for i, it := range sel.Items {
		name := it.Alias
		if name == "" {
			name = fmt.Sprintf("col%d", i+1)
		}
		out.cols = append(out.cols, name)
	}
	if len(sel.GroupBy) > 0 || hasAggregate(sel) {
		if err := aggregate(sel, cols, joined, &out); err != nil {
			return answer{}, err
		}
	} else {
		items := make([]expr, len(sel.Items))
		for i, it := range sel.Items {
			fn, err := compile(it.Expr, cols)
			if err != nil {
				return answer{}, err
			}
			items[i] = fn
		}
		for _, row := range joined {
			o := make(relalg.Tuple, len(items))
			for i, fn := range items {
				o[i] = fn(row)
			}
			out.rows = append(out.rows, o)
		}
	}
	if sel.Distinct {
		out.rows = dedup(out.rows)
	}
	if len(sel.OrderBy) > 0 {
		keys := make([]expr, len(sel.OrderBy))
		for i, o := range sel.OrderBy {
			fn, err := compile(o.Expr, out.cols)
			if err != nil {
				return answer{}, err
			}
			keys[i] = fn
		}
		sort.SliceStable(out.rows, func(a, b int) bool {
			for i, k := range keys {
				c := order(k(out.rows[a]), k(out.rows[b]))
				if sel.OrderBy[i].Desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
	}
	if sel.Limit >= 0 && len(out.rows) > sel.Limit {
		out.rows = out.rows[:sel.Limit]
	}
	return out, nil
}

// aggregate groups rows by the GROUP BY expressions (first appearance,
// NOT DISTINCT equality), keeps the groups HAVING holds for and evaluates
// the select list per group. With no GROUP BY the whole input is one
// group, even when it is empty.
func aggregate(sel *sqlparse.Select, cols []string, rows []relalg.Tuple, out *answer) error {
	keys := make([]expr, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		fn, err := compile(g, cols)
		if err != nil {
			return err
		}
		keys[i] = fn
	}
	type group struct {
		key  relalg.Tuple
		rows []relalg.Tuple
	}
	var groups []*group
	if len(keys) == 0 {
		groups = []*group{{rows: rows}}
	} else {
	next:
		for _, r := range rows {
			k := make(relalg.Tuple, len(keys))
			for i, fn := range keys {
				k[i] = fn(r)
			}
			for _, g := range groups {
				if sameRow(g.key, k) {
					g.rows = append(g.rows, r)
					continue next
				}
			}
			groups = append(groups, &group{key: k, rows: []relalg.Tuple{r}})
		}
	}
	for _, g := range groups {
		if sel.Having != nil {
			h, err := evalAgg(sel.Having, cols, g.rows)
			if err != nil {
				return err
			}
			if h.K != relalg.KindBool || !h.B {
				continue
			}
		}
		o := make(relalg.Tuple, len(sel.Items))
		for i, it := range sel.Items {
			v, err := evalAgg(it.Expr, cols, g.rows)
			if err != nil {
				return err
			}
			o[i] = v
		}
		out.rows = append(out.rows, o)
	}
	return nil
}

// evalAgg evaluates an expression over one group. An aggregate call
// reads every row of the group; operators combine what their operands
// give; any other expression is a function of the group key and is read
// off the group's first row (off a row of NULLs when the group is empty,
// so a constant stays a constant).
func evalAgg(e sqlparse.Expr, cols []string, rows []relalg.Tuple) (relalg.Value, error) {
	switch e := e.(type) {
	case *sqlparse.FuncCall:
		return aggregateCall(e, cols, rows)
	case *sqlparse.BinaryExpr:
		l, err := evalAgg(e.L, cols, rows)
		if err != nil {
			return relalg.Null, err
		}
		r, err := evalAgg(e.R, cols, rows)
		if err != nil {
			return relalg.Null, err
		}
		return binary(e.Op, l, r), nil
	case *sqlparse.UnaryExpr:
		x, err := evalAgg(e.X, cols, rows)
		if err != nil {
			return relalg.Null, err
		}
		return unary(e.Op, x), nil
	}
	fn, err := compile(e, cols)
	if err != nil {
		return relalg.Null, err
	}
	if len(rows) == 0 {
		return fn(make(relalg.Tuple, len(cols))), nil
	}
	return fn(rows[0]), nil
}

// aggregateCall is SQL's aggregate over the non-NULL values of its
// argument: COUNT counts them (COUNT(*) counts rows), SUM adds them, AVG
// is SUM over COUNT, MIN and MAX pick the least and greatest in ORDER
// BY's order; each but COUNT is NULL when there are none.
func aggregateCall(fc *sqlparse.FuncCall, cols []string, rows []relalg.Tuple) (relalg.Value, error) {
	if fc.Star {
		return relalg.NumV(float64(len(rows))), nil
	}
	arg, err := compile(fc.Args[0], cols)
	if err != nil {
		return relalg.Null, err
	}
	var vals []relalg.Value
	for _, r := range rows {
		if v := arg(r); v.K != relalg.KindNull {
			vals = append(vals, v)
		}
	}
	if fc.Name == "COUNT" {
		return relalg.NumV(float64(len(vals))), nil
	}
	if len(vals) == 0 {
		return relalg.Null, nil
	}
	switch fc.Name {
	case "SUM", "AVG":
		sum := 0.0
		for _, v := range vals {
			sum += v.N
		}
		if fc.Name == "AVG" {
			sum /= float64(len(vals))
		}
		return relalg.NumV(sum), nil
	case "MIN", "MAX":
		best := vals[0]
		for _, v := range vals[1:] {
			if c := order(v, best); fc.Name == "MIN" && c < 0 || fc.Name == "MAX" && c > 0 {
				best = v
			}
		}
		return best, nil
	}
	return relalg.Null, fmt.Errorf("refeval: aggregate %s", fc.Name)
}

// hasAggregate reports whether sel aggregates: an aggregate call anywhere
// in its select list, or a HAVING.
func hasAggregate(sel *sqlparse.Select) bool {
	found := sel.Having != nil
	for _, it := range sel.Items {
		sqlparse.WalkExprs(it.Expr, func(x sqlparse.Expr) bool {
			_, call := x.(*sqlparse.FuncCall)
			found = found || call
			return !found
		})
	}
	return found
}

// dedup keeps the first of every run of NOT DISTINCT rows.
func dedup(rows []relalg.Tuple) []relalg.Tuple {
	var out []relalg.Tuple
next:
	for _, r := range rows {
		for _, o := range out {
			if sameRow(o, r) {
				continue next
			}
		}
		out = append(out, r)
	}
	return out
}

// expr is a compiled scalar expression over one row.
type expr func(relalg.Tuple) relalg.Value

// resolve finds a column: a qualified reference by its full name, a bare
// one by exact name or unique ".name" suffix.
func resolve(cols []string, c *sqlparse.ColRef) (int, error) {
	want := c.Column
	if c.Table != "" {
		want = c.Table + "." + c.Column
	}
	found := -1
	for i, n := range cols {
		if n == want || (c.Table == "" && strings.HasSuffix(n, "."+want)) {
			if found >= 0 {
				return 0, fmt.Errorf("refeval: ambiguous column %s", want)
			}
			found = i
		}
	}
	if found < 0 {
		return 0, fmt.Errorf("refeval: unknown column %s in %v", want, cols)
	}
	return found, nil
}

func compile(e sqlparse.Expr, cols []string) (expr, error) {
	switch e := e.(type) {
	case *sqlparse.ColRef:
		i, err := resolve(cols, e)
		return func(r relalg.Tuple) relalg.Value { return r[i] }, err
	case sqlparse.NumberLit:
		return func(relalg.Tuple) relalg.Value { return relalg.NumV(float64(e)) }, nil
	case sqlparse.StringLit:
		return func(relalg.Tuple) relalg.Value { return relalg.StrV(string(e)) }, nil
	case *sqlparse.IsNull:
		x, err := compile(e.X, cols)
		return func(r relalg.Tuple) relalg.Value { return relalg.BoolV((x(r).K == relalg.KindNull) != e.Not) }, err
	case *sqlparse.UnaryExpr:
		x, err := compile(e.X, cols)
		return func(r relalg.Tuple) relalg.Value { return unary(e.Op, x(r)) }, err
	case *sqlparse.BinaryExpr:
		l, err := compile(e.L, cols)
		if err != nil {
			return nil, err
		}
		r, err := compile(e.R, cols)
		if err != nil {
			return nil, err
		}
		return func(row relalg.Tuple) relalg.Value { return binary(e.Op, l(row), r(row)) }, nil
	}
	return nil, fmt.Errorf("refeval: cannot compile %T", e)
}

// binary applies an operator with the engine's two-valued logic: a
// comparison involving NULL is false, arithmetic on NULL is NULL.
func binary(op string, l, r relalg.Value) relalg.Value {
	truth := func(v relalg.Value) bool { return v.K == relalg.KindBool && v.B }
	switch op {
	case "AND":
		return relalg.BoolV(truth(l) && truth(r))
	case "OR":
		return relalg.BoolV(truth(l) || truth(r))
	case "+", "-", "*":
		if l.K != relalg.KindNumber || r.K != relalg.KindNumber {
			return relalg.Null
		}
		switch op {
		case "+":
			return relalg.NumV(l.N + r.N)
		case "-":
			return relalg.NumV(l.N - r.N)
		}
		return relalg.NumV(l.N * r.N)
	case "=":
		return relalg.BoolV(equal(l, r))
	case "<>":
		return relalg.BoolV(l.K != relalg.KindNull && r.K != relalg.KindNull && !equal(l, r))
	}
	c, ok := compare(l, r)
	switch op {
	case "<":
		return relalg.BoolV(ok && c < 0)
	case ">":
		return relalg.BoolV(ok && c > 0)
	case "<=":
		return relalg.BoolV(ok && c <= 0)
	case ">=":
		return relalg.BoolV(ok && c >= 0)
	}
	return relalg.Null
}

// equal is SQL "=": NULL and NaN equal nothing, −0 = 0.
func equal(a, b relalg.Value) bool {
	if a.K != b.K {
		return false
	}
	switch a.K {
	case relalg.KindNumber:
		return a.N == b.N
	case relalg.KindString:
		return a.S == b.S
	case relalg.KindBool:
		return a.B == b.B
	}
	return false
}

// same is IS NOT DISTINCT FROM: NULL = NULL, NaN = NaN, −0 = 0.
func same(a, b relalg.Value) bool {
	if a.K == relalg.KindNumber && b.K == relalg.KindNumber && math.IsNaN(a.N) && math.IsNaN(b.N) {
		return true
	}
	return (a.K == relalg.KindNull && b.K == relalg.KindNull) || equal(a, b)
}

func sameRow(a, b relalg.Tuple) bool {
	for i := range a {
		if !same(a[i], b[i]) {
			return false
		}
	}
	return true
}

// unary applies a unary operator: minus negates a number and keeps NULL.
func unary(op string, v relalg.Value) relalg.Value {
	if op == "-" && v.K == relalg.KindNumber {
		return relalg.NumV(-v.N)
	}
	return relalg.Null
}

// compare orders two values for "<", "<=", ">" and ">=": ok is false,
// and the comparison therefore false, when either side is NULL or NaN or
// the kinds differ.
func compare(a, b relalg.Value) (int, bool) {
	if a.K != b.K || a.K == relalg.KindNull {
		return 0, false
	}
	switch a.K {
	case relalg.KindNumber:
		switch {
		case math.IsNaN(a.N) || math.IsNaN(b.N):
			return 0, false
		case a.N < b.N:
			return -1, true
		case a.N > b.N:
			return 1, true
		}
		return 0, true
	case relalg.KindString:
		return strings.Compare(a.S, b.S), true
	}
	switch {
	case a.B == b.B:
		return 0, true
	case b.B:
		return -1, true
	}
	return 1, true
}

// order is ORDER BY's total order: NULL first, then numbers (NaN last
// among them), strings and booleans.
func order(a, b relalg.Value) int {
	if a.K != b.K {
		return int(a.K) - int(b.K)
	}
	if a.K == relalg.KindNumber && (math.IsNaN(a.N) || math.IsNaN(b.N)) {
		switch {
		case math.IsNaN(a.N) && math.IsNaN(b.N):
			return 0
		case math.IsNaN(a.N):
			return 1
		}
		return -1
	}
	c, _ := compare(a, b)
	return c
}
