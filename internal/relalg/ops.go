package relalg

import (
	"sort"

	"repro/internal/sqlparse"
)

// Sort and GroupBy are inherently pipeline breakers, so their
// materialized cores live here (and in agg.go) and SortIter/GroupByIter
// wrap them; every other operator exists only as a streaming iterator
// (iterops.go) — drain one with Collect for a materialized answer.

// ProjectItem names one output column computed by an expression.
type ProjectItem struct {
	Name string
	Expr sqlparse.Expr
}

// OrderKey is one sort key of SortIter.
type OrderKey struct {
	Expr sqlparse.Expr
	Desc bool
}

// sortRelation orders tuples by the given keys (stable). It is the
// materialized sort core; SortIter streams over its result.
func sortRelation(r *Relation, keys []OrderKey) (*Relation, error) {
	type decorated struct {
		t    Tuple
		keys []Value
	}
	rows := make([]decorated, len(r.Tuples))
	for i, t := range r.Tuples {
		d := decorated{t: t, keys: make([]Value, len(keys))}
		for ki, k := range keys {
			v, err := Eval(k.Expr, r.Schema, t)
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

// sortTuplesByKeyCols returns a stably sorted copy of tuples ordered by
// the values at the given column positions (merge-join run ordering).
func sortTuplesByKeyCols(tuples []Tuple, idx []int) []Tuple {
	out := append([]Tuple(nil), tuples...)
	sort.SliceStable(out, func(i, j int) bool {
		for _, k := range idx {
			if c := out[i][k].SortKey(out[j][k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}
