package relalg

import (
	"fmt"
	"slices"

	"repro/internal/sqlparse"
)

// AggItem is one output column of a grouped query: either a plain
// expression over the group key or an aggregate function call.
type AggItem struct {
	Name string
	Expr sqlparse.Expr // may contain FuncCall nodes
}

// groupBy is the grouping core: it groups r by the key expressions and
// computes the items per group. With no keys, the whole relation is one
// group (global aggregation); an empty input then yields one row of
// aggregate identity values (COUNT=0, SUM/AVG/MIN/MAX=NULL), matching SQL.
// Group keys compare as IS NOT DISTINCT FROM (NULL, NaN and ±0 each form
// one group) in a keyTable, whose ids give the output order: first
// appearance.
func groupBy(r *Relation, keys []sqlparse.Expr, items []AggItem, having sqlparse.Expr) (*Relation, error) {
	var index keyTable
	var buf []byte
	gid := make([]int32, len(r.Tuples))
	kv := make(Tuple, len(keys))
	for ri, t := range r.Tuples {
		for i, k := range keys {
			v, err := Eval(k, r.Schema, t)
			if err != nil {
				return nil, err
			}
			kv[i] = v
		}
		buf = appendRowKey(buf[:0], kv)
		gid[ri], _ = index.insert(buf)
	}
	checkTable(&index)
	groups := len(index.ents)
	if len(keys) == 0 && groups == 0 {
		groups = 1
	}
	// Lay the groups out back to back in one slice, rows within a group
	// in input order: start[g] is where group g begins.
	start := make([]int, groups+1)
	for _, g := range gid {
		start[g+1]++
	}
	for g := range groups {
		start[g+1] += start[g]
	}
	members := make([]Tuple, len(r.Tuples))
	fill := slices.Clone(start[:groups])
	for ri, g := range gid {
		members[fill[g]] = r.Tuples[ri]
		fill[g]++
	}

	cols := make([]Column, len(items))
	for i, it := range items {
		cols[i] = Column{Name: it.Name, Type: aggType(it.Expr, r.Schema)}
	}
	out := NewRelation(r.Name, Schema{Columns: cols})
	for g := range groups {
		group := members[start[g]:start[g+1]]
		row := make(Tuple, len(items))
		for i, it := range items {
			v, err := evalAgg(it.Expr, r.Schema, group)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		if having != nil {
			// HAVING evaluates aggregate expressions over the same group.
			hv, err := evalAgg(having, r.Schema, group)
			if err != nil {
				return nil, err
			}
			if hv.K != KindBool || !hv.B {
				continue
			}
		}
		out.Tuples = append(out.Tuples, row)
	}
	return out, nil
}

func aggType(e sqlparse.Expr, schema Schema) Kind {
	if fc, ok := e.(*sqlparse.FuncCall); ok {
		switch fc.Name {
		case "MIN", "MAX":
			if len(fc.Args) == 1 {
				return InferType(fc.Args[0], schema)
			}
		}
		return KindNumber
	}
	return InferType(e, schema)
}

// evalAgg evaluates an expression that may contain aggregate calls over a
// group of tuples. Non-aggregate subexpressions are evaluated on the first
// tuple of the group (they must be functionally dependent on the group
// key; the planner validates that before execution).
func evalAgg(e sqlparse.Expr, schema Schema, group []Tuple) (Value, error) {
	switch e := e.(type) {
	case *sqlparse.FuncCall:
		return applyAggregate(e, schema, group)
	case *sqlparse.BinaryExpr:
		l, err := evalAgg(e.L, schema, group)
		if err != nil {
			return Null, err
		}
		r, err := evalAgg(e.R, schema, group)
		if err != nil {
			return Null, err
		}
		return evalBinary(&sqlparse.BinaryExpr{Op: e.Op, L: lit(l), R: lit(r)}, Schema{}, nil)
	case *sqlparse.UnaryExpr:
		x, err := evalAgg(e.X, schema, group)
		if err != nil {
			return Null, err
		}
		return Eval(&sqlparse.UnaryExpr{Op: e.Op, X: lit(x)}, Schema{}, nil)
	default:
		if len(group) == 0 {
			return Null, nil
		}
		return Eval(e, schema, group[0])
	}
}

// lit wraps a computed Value back into a literal expression for reuse of
// the scalar evaluator.
func lit(v Value) sqlparse.Expr {
	switch v.K {
	case KindNumber:
		return sqlparse.NumberLit(v.N)
	case KindString:
		return sqlparse.StringLit(v.S)
	case KindBool:
		return sqlparse.BoolLit(v.B)
	}
	return sqlparse.NullLit{}
}

// IsAggregate reports whether e contains an aggregate function call.
func IsAggregate(e sqlparse.Expr) bool {
	found := false
	sqlparse.WalkExprs(e, func(x sqlparse.Expr) bool {
		if _, ok := x.(*sqlparse.FuncCall); ok {
			found = true
			return false
		}
		return true
	})
	return found
}

func applyAggregate(fc *sqlparse.FuncCall, schema Schema, group []Tuple) (Value, error) {
	if fc.Star {
		if fc.Name != "COUNT" {
			return Null, fmt.Errorf("relalg: %s(*) is not supported", fc.Name)
		}
		return NumV(float64(len(group))), nil
	}
	if len(fc.Args) != 1 {
		return Null, fmt.Errorf("relalg: aggregate %s wants 1 argument, got %d", fc.Name, len(fc.Args))
	}
	var vals []Value
	for _, t := range group {
		v, err := Eval(fc.Args[0], schema, t)
		if err != nil {
			return Null, err
		}
		if !v.IsNull() {
			vals = append(vals, v)
		}
	}
	switch fc.Name {
	case "COUNT":
		return NumV(float64(len(vals))), nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return Null, nil
		}
		sum := 0.0
		for _, v := range vals {
			if v.K != KindNumber {
				return Null, fmt.Errorf("relalg: %s over non-numeric value", fc.Name)
			}
			sum += v.N
		}
		if fc.Name == "AVG" {
			return NumV(sum / float64(len(vals))), nil
		}
		return NumV(sum), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return Null, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, ok := v.Compare(best)
			if !ok {
				return Null, fmt.Errorf("relalg: %s over incomparable values", fc.Name)
			}
			if (fc.Name == "MIN" && c < 0) || (fc.Name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return Null, fmt.Errorf("relalg: unknown aggregate %s", fc.Name)
}
