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

// grouping is a GROUP BY compiled against its input schema, and its run:
// one per operator, which is single-use. Keys compile with Compile. Every
// aggregate call in the items and HAVING is a slot: each group keeps one
// accumulator per slot, fed row by row in input order, and its first
// row, which the non-aggregate parts of the items read. Operators over
// aggregates combine the slots' results with the value-level rules
// Compile also uses. The groups are numbered in first-appearance order,
// the output order, by a keyTable: keys compare as IS NOT DISTINCT FROM
// (NULL, NaN and ±0 each form one group).
type grouping struct {
	keys   []CompiledExpr
	slots  []aggSlot
	items  []aggExpr
	having aggExpr // nil when absent

	index  keyTable
	groups []*groupState
	firsts *BatchBuilder // the arena holding each group's first row
	kv     Tuple
	buf    []byte
}

// aggExpr is an item or HAVING evaluated over one group.
type aggExpr func(*groupState) (Value, error)

// aggSlot is one aggregate call.
type aggSlot struct {
	name string       // COUNT, SUM, AVG, MIN or MAX
	arg  CompiledExpr // nil for COUNT(*) and malformed calls
	err  error        // a malformed or unknown call's result
}

// groupState is one group's first row, which the non-aggregate parts of
// the items read (nil for the empty global group), and its accumulators,
// one per slot.
type groupState struct {
	first Tuple
	accs  []acc
}

// acc is one group's running state for one slot: the rows (COUNT(*)) or
// non-NULL values seen, their sum, and the least or greatest of them.
type acc struct {
	n    int
	sum  float64
	best Value
}

// compileGrouping compiles keys, items and having against schema. Nothing
// here fails: a bad column or a malformed call fails on the row or group
// that reaches it, so an empty input still yields the global row.
func compileGrouping(schema Schema, keys []sqlparse.Expr, items []AggItem, having sqlparse.Expr) *grouping {
	g := &grouping{keys: make([]CompiledExpr, len(keys)), items: make([]aggExpr, len(items)),
		firsts: NewBatchBuilder(len(schema.Columns)), kv: make(Tuple, len(keys))}
	for i, k := range keys {
		g.keys[i] = Compile(k, schema)
	}
	for i, it := range items {
		g.items[i] = g.compile(it.Expr, schema)
	}
	if having != nil {
		g.having = g.compile(having, schema)
	}
	return g
}

// compile compiles e over a group. An operator with an aggregate beneath
// it applies its value-level rule to what its operands give; a call
// becomes a slot; anything else is a function of the group key, compiled
// with Compile and read off the group's first row. In the empty global
// group such an expression is NULL when it names a column, and evaluated
// as it stands when it does not (so COUNT(*) + 1 over no rows is 1).
func (g *grouping) compile(e sqlparse.Expr, schema Schema) aggExpr {
	switch x := e.(type) {
	case *sqlparse.FuncCall:
		i := len(g.slots)
		g.slots = append(g.slots, newSlot(x, schema))
		s := g.slots[i]
		return func(gs *groupState) (Value, error) { return s.result(&gs.accs[i]) }
	case *sqlparse.BinaryExpr:
		if IsAggregate(x) {
			return binaryExpr(x.Op, g.compile(x.L, schema), g.compile(x.R, schema))
		}
	case *sqlparse.UnaryExpr:
		if IsAggregate(x) {
			return unaryExpr(x.Op, g.compile(x.X, schema))
		}
	}
	fn := Compile(e, schema)
	rowFree := len(sqlparse.ColumnsOf(e)) == 0
	return func(gs *groupState) (Value, error) {
		if gs.first == nil && !rowFree {
			return Null, nil
		}
		return fn(gs.first)
	}
}

func newSlot(fc *sqlparse.FuncCall, schema Schema) aggSlot {
	switch {
	case fc.Star && fc.Name != "COUNT":
		return aggSlot{err: fmt.Errorf("relalg: %s(*) is not supported", fc.Name)}
	case fc.Star:
		return aggSlot{name: "COUNT"}
	case len(fc.Args) != 1:
		return aggSlot{err: fmt.Errorf("relalg: aggregate %s wants 1 argument, got %d", fc.Name, len(fc.Args))}
	}
	s := aggSlot{name: fc.Name, arg: Compile(fc.Args[0], schema)}
	if !slices.Contains([]string{"COUNT", "SUM", "AVG", "MIN", "MAX"}, fc.Name) {
		// The argument is still evaluated, so its errors come first.
		s.err = fmt.Errorf("relalg: unknown aggregate %s", fc.Name)
	}
	return s
}

// feed adds row t to one accumulator. MIN and MAX order by SortKey, so
// NaN is above every number; values of two kinds are an error.
func (s *aggSlot) feed(a *acc, t Tuple) error {
	if s.arg == nil {
		a.n++
		return nil
	}
	v, err := s.arg(t)
	if err != nil || v.IsNull() {
		return err
	}
	switch s.name {
	case "SUM", "AVG":
		if v.K != KindNumber {
			return fmt.Errorf("relalg: %s over non-numeric value", s.name)
		}
		a.sum += v.N
	case "MIN", "MAX":
		if a.n > 0 {
			if v.K != a.best.K {
				return fmt.Errorf("relalg: %s over incomparable values", s.name)
			}
			if c := v.SortKey(a.best); s.name == "MIN" && c >= 0 || s.name == "MAX" && c <= 0 {
				break
			}
		}
		a.best = v
	}
	a.n++
	return nil
}

// result is the slot's value for a group fed into a: a count, or NULL
// when no value was seen.
func (s *aggSlot) result(a *acc) (Value, error) {
	switch {
	case s.err != nil:
		return Null, s.err
	case s.name == "COUNT":
		return NumV(float64(a.n)), nil
	case a.n == 0:
		return Null, nil
	case s.name == "AVG":
		return NumV(a.sum / float64(a.n)), nil
	case s.name == "SUM":
		return NumV(a.sum), nil
	}
	return a.best, nil
}

// add feeds one batch to the groups. A new group's first row is copied
// into the grouping's own arena; nothing else of the batch is kept.
func (g *grouping) add(b Batch) error {
	g.firsts.Reset(0)
	for _, row := range b.Rows {
		for i, k := range g.keys {
			v, err := k(row)
			if err != nil {
				return err
			}
			g.kv[i] = v
		}
		g.buf = appendRowKey(g.buf[:0], g.kv)
		id, added := g.index.insert(g.buf)
		if added {
			first := g.firsts.Row()
			copy(first, row)
			g.groups = append(g.groups, &groupState{first: first, accs: make([]acc, len(g.slots))})
		}
		accs := g.groups[id].accs
		for i := range g.slots {
			if err := g.slots[i].feed(&accs[i], row); err != nil {
				return err
			}
		}
	}
	return nil
}

// result computes the items per group, keeping the groups HAVING passes.
// With no keys the whole input is one group (global aggregation); an
// empty input then yields one row of aggregate identity values (COUNT=0,
// SUM/AVG/MIN/MAX=NULL), matching SQL.
func (g *grouping) result(schema Schema) (*Relation, error) {
	checkTable(&g.index)
	if len(g.keys) == 0 && len(g.groups) == 0 {
		g.groups = append(g.groups, &groupState{accs: make([]acc, len(g.slots))})
	}
	out := NewRelation("", schema)
	w := len(g.items)
	slab := make([]Value, len(g.groups)*w)
	for gi, group := range g.groups {
		row := slab[gi*w : (gi+1)*w : (gi+1)*w]
		for i, item := range g.items {
			v, err := item(group)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		if g.having != nil {
			hv, err := g.having(group)
			if err != nil {
				return nil, err
			}
			if !truth(hv) {
				continue
			}
		}
		out.Tuples = append(out.Tuples, row)
	}
	return out, nil
}

// aggType is an item's result kind: MIN and MAX keep their argument's,
// and every other aggregate is a number (as InferType says).
func aggType(e sqlparse.Expr, schema Schema) Kind {
	if fc, ok := e.(*sqlparse.FuncCall); ok && (fc.Name == "MIN" || fc.Name == "MAX") && len(fc.Args) == 1 {
		return InferType(fc.Args[0], schema)
	}
	return InferType(e, schema)
}

// IsAggregate reports whether e contains an aggregate function call.
func IsAggregate(e sqlparse.Expr) bool {
	found := false
	sqlparse.WalkExprs(e, func(x sqlparse.Expr) bool {
		_, call := x.(*sqlparse.FuncCall)
		found = found || call
		return !found
	})
	return found
}
