package refeval

// The generator: a random federation of in-memory relational sources and
// random SELECTs over it. Values deliberately include NULL, two NaN
// payloads, −0 next to 0, duplicate keys, the empty string and long
// strings. Source c requires a binding on c.s (every query over it is a
// bind join, batched three values per IN list unless batching is off),
// b.k carries an index, and big spans many batches, so sorts over it and
// joins that stream its batches through recycled arenas run.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"

	"repro/internal/relalg"
	"repro/internal/sqlparse"
	"repro/internal/store"
	"repro/internal/wrapper"
)

// column is one generated column: its kind and whether it may hold NaN.
type column struct {
	name string
	kind relalg.Kind
	nan  bool
}

// relations is the generated schema.
var relations = map[string][]column{
	"a":   {{"k", relalg.KindNumber, true}, {"s", relalg.KindString, false}, {"x", relalg.KindNumber, true}},
	"b":   {{"k", relalg.KindNumber, true}, {"s", relalg.KindString, false}, {"y", relalg.KindNumber, false}},
	"c":   {{"s", relalg.KindString, false}, {"z", relalg.KindNumber, false}},
	"big": {{"k", relalg.KindNumber, true}, {"v", relalg.KindNumber, false}},
}

// bigRows puts big above two sort workers' worth of rows (2 × 16,384);
// bigSource serves it.
const (
	bigRows   = 33000
	bigSource = "s4"
)

var (
	negZero = math.Copysign(0, -1)
	nan2    = math.Float64frombits(0xFFF8000000000ABC) // a second NaN payload
	longs   = []string{strings.Repeat("long-", 12) + "x", strings.Repeat("long-", 12) + "y"}
)

// genNum draws a number from 0..span-1, NULL, ±0 and (when nan) NaN.
func genNum(rng *rand.Rand, span int, nan bool) relalg.Value {
	switch rng.Intn(10) {
	case 0:
		return relalg.Null
	case 1:
		return relalg.NumV(negZero)
	case 2:
		if nan {
			return relalg.NumV(math.NaN())
		}
	case 3:
		if nan {
			return relalg.NumV(nan2)
		}
	}
	return relalg.NumV(float64(rng.Intn(span)))
}

func genStr(rng *rand.Rand) relalg.Value {
	switch rng.Intn(10) {
	case 0:
		return relalg.Null
	case 1:
		return relalg.StrV("")
	case 2, 3:
		return relalg.StrV(longs[rng.Intn(len(longs))])
	}
	return relalg.StrV(string(rune('p' + rng.Intn(4))))
}

func genValue(rng *rand.Rand, c column, span int) relalg.Value {
	if c.kind == relalg.KindString {
		return genStr(rng)
	}
	return genNum(rng, span, c.nan)
}

// fillTable creates relation name in db with n generated rows.
func fillTable(rng *rand.Rand, db *store.DB, name string, n, span int) *store.Table {
	cols := relations[name]
	schema := relalg.Schema{}
	for _, c := range cols {
		schema.Columns = append(schema.Columns, relalg.Column{Name: c.name, Type: c.kind})
	}
	t := db.MustCreateTable(name, schema)
	for i := 0; i < n; i++ {
		row := make(relalg.Tuple, len(cols))
		for j, c := range cols {
			row[j] = genValue(rng, c, span)
		}
		t.MustInsert(row...)
	}
	return t
}

var (
	bigOnce sync.Once
	bigDB   *store.DB
)

// sharedBig is the one big relation every world reads (it is read-only).
func sharedBig() *store.DB {
	bigOnce.Do(func() {
		bigDB = store.NewDB(bigSource)
		fillTable(rand.New(rand.NewSource(1)), bigDB, "big", bigRows, 200)
	})
	return bigDB
}

// sources builds the four generated sources: the engine's wrappers (c
// requires c.s) and the unrestricted ones the evaluator reads through.
func sources(rng *rand.Rand) (engine []wrapper.Wrapper, ref map[string]wrapper.Wrapper) {
	dbA, dbB, dbC := store.NewDB("s1"), store.NewDB("s2"), store.NewDB("s3")
	fillTable(rng, dbA, "a", rng.Intn(40), 6)
	if err := fillTable(rng, dbB, "b", rng.Intn(40), 6).CreateIndex("k"); err != nil {
		panic(err)
	}
	fillTable(rng, dbC, "c", rng.Intn(20), 6)
	c := wrapper.NewRelational(dbC)
	c.Require = map[string][]string{"c": {"s"}}
	c.BatchSize = 3
	engine = []wrapper.Wrapper{wrapper.NewRelational(dbA), wrapper.NewRelational(dbB), c, wrapper.NewRelational(sharedBig())}
	ref = map[string]wrapper.Wrapper{}
	for _, db := range []*store.DB{dbA, dbB, dbC, sharedBig()} {
		for _, name := range db.TableNames() {
			ref[name] = wrapper.NewRelational(db)
		}
	}
	return engine, ref
}

// qgen draws queries.
type qgen struct{ rng *rand.Rand }

func (g *qgen) pick(n int) int { return g.rng.Intn(n) }

func col(rel, name string) *sqlparse.ColRef { return sqlparse.Col(rel, name) }

// from draws a FROM list and its join predicates. c only appears joined
// on c.s, which its source requires; big only joins a on k.
func (g *qgen) from() ([]string, []sqlparse.Expr) {
	key := func(l, r string) []sqlparse.Expr {
		switch g.pick(3) {
		case 0:
			return []sqlparse.Expr{sqlparse.Bin("=", col(l, "k"), col(r, "k"))}
		case 1:
			return []sqlparse.Expr{sqlparse.Bin("=", col(l, "s"), col(r, "s"))}
		}
		return []sqlparse.Expr{sqlparse.Bin("=", col(l, "k"), col(r, "k")), sqlparse.Bin("=", col(l, "s"), col(r, "s"))}
	}
	switch n := g.pick(32); {
	case n < 4:
		return []string{"a"}, nil
	case n < 8:
		return []string{"b"}, nil
	case n < 16:
		return []string{"a", "b"}, key("a", "b")
	case n < 20:
		rel := []string{"a", "b"}[g.pick(2)]
		return []string{rel, "c"}, []sqlparse.Expr{sqlparse.Bin("=", col(rel, "s"), col("c", "s"))}
	case n < 30:
		return []string{"a", "b", "c"}, append(key("a", "b"), sqlparse.Bin("=", col("b", "s"), col("c", "s")))
	case n == 30:
		return []string{"big"}, nil
	}
	// Half the time a is cut to one string value first, so the nested
	// loops over big (the evaluator's, and the engine's under
	// ForceNestedLoop) stay short; the other half keeps a's NULL and other
	// strings in the join.
	joins := []sqlparse.Expr{sqlparse.Bin("=", col("a", "k"), col("big", "k"))}
	if g.pick(2) == 0 {
		joins = append(joins, sqlparse.Bin("=", col("a", "s"), sqlparse.Str("p")))
	}
	return []string{"a", "big"}, joins
}

// columns lists the FROM list's columns as (relation, column) pairs.
func columns(from []string) [][2]string {
	var out [][2]string
	for _, r := range from {
		for _, c := range relations[r] {
			out = append(out, [2]string{r, c.name})
		}
	}
	return out
}

func kindOf(rel, name string) column {
	for _, c := range relations[rel] {
		if c.name == name {
			return c
		}
	}
	panic(rel + "." + name)
}

// filters draws extra WHERE conjuncts: a column against a literal
// (pushed to the source, through b's index when it is b.k = …), two
// columns of one relation (an engine-local filter), or columns of two
// relations (a residual). Half the time the column is one that may hold
// NaN.
func (g *qgen) filters(from []string) []sqlparse.Expr {
	var out []sqlparse.Expr
	cols := columns(from)
	var nan [][2]string
	for _, c := range cols {
		if kindOf(c[0], c[1]).nan {
			nan = append(nan, c)
		}
	}
	ops := []string{"=", "=", "<>", "<", "<=", ">", ">="}
	for n := g.pick(3); n > 0; n-- {
		c := cols[g.pick(len(cols))]
		if len(nan) > 0 && g.pick(2) == 0 {
			c = nan[g.pick(len(nan))]
		}
		kc := kindOf(c[0], c[1])
		op := ops[g.pick(len(ops))]
		switch g.pick(4) {
		case 0, 1:
			var lit sqlparse.Expr = sqlparse.Num([]float64{0, negZero, 1, 2, 3}[g.pick(5)])
			if kc.kind == relalg.KindString {
				lit = sqlparse.Str(string(rune('p' + g.pick(4))))
			}
			out = append(out, sqlparse.Bin(op, col(c[0], c[1]), lit))
		case 2:
			// Two numeric columns of one relation: never pushed.
			var nums []string
			for _, k := range relations[c[0]] {
				if k.kind == relalg.KindNumber {
					nums = append(nums, k.name)
				}
			}
			if len(nums) == 2 {
				out = append(out, sqlparse.Bin(op, col(c[0], nums[0]), col(c[0], nums[1])))
			} else {
				out = append(out, sqlparse.Bin(op, sqlparse.Bin("+", col(c[0], nums[0]), sqlparse.Num(1)), sqlparse.Num(2)))
			}
		default:
			o := cols[g.pick(len(cols))]
			if o[0] != c[0] && kindOf(o[0], o[1]).kind == kc.kind {
				out = append(out, sqlparse.Bin(op, col(c[0], c[1]), col(o[0], o[1])))
			} else {
				out = append(out, &sqlparse.IsNull{X: col(c[0], c[1]), Not: g.pick(2) == 0})
			}
		}
	}
	return out
}

// items draws 1–3 aliased select items over the FROM list.
func (g *qgen) items(from []string) []sqlparse.SelectItem {
	cols := columns(from)
	var out []sqlparse.SelectItem
	for i := 0; i < 1+g.pick(3); i++ {
		c := cols[g.pick(len(cols))]
		out = append(out, sqlparse.SelectItem{Expr: col(c[0], c[1]), Alias: fmt.Sprintf("c%d", i+1)})
	}
	return out
}

// aggItems draws group keys, the select list and a HAVING. A key is a
// column or, now and then, an expression over one (k + 1, −k), and each
// key is also an item. Aggregates are COUNT(*) and COUNT over any column,
// SUM and AVG over numbers and MIN and MAX over any column, NaN-bearing
// ones included; a numeric aggregate sometimes sits under arithmetic or
// a unary minus. HAVING, drawn for three grouped queries in four (the
// dialect takes it only after GROUP BY), compares an aggregate or a key
// with a literal, sometimes two such terms ANDed.
// cols are the columns the terms may name, and kind gives each column's
// kind.
func (g *qgen) aggItems(cols [][2]string, kind func(rel, name string) column, grouped bool) ([]sqlparse.SelectItem, []sqlparse.Expr, sqlparse.Expr) {
	var items []sqlparse.SelectItem
	var keys []sqlparse.Expr
	var keyKinds []relalg.Kind
	alias := func() string { return fmt.Sprintf("c%d", len(items)+1) }
	if grouped {
		for n := 1 + g.pick(2); n > 0; n-- {
			c := cols[g.pick(len(cols))]
			kc := kind(c[0], c[1])
			var k sqlparse.Expr = col(c[0], c[1])
			if kc.kind == relalg.KindNumber {
				switch g.pick(4) {
				case 0:
					k = sqlparse.Bin("+", k, sqlparse.Num(1))
				case 1:
					k = &sqlparse.UnaryExpr{Op: "-", X: k}
				}
			}
			keys = append(keys, k)
			keyKinds = append(keyKinds, kc.kind)
			items = append(items, sqlparse.SelectItem{Expr: k, Alias: alias()})
		}
	}
	for n := 1 + g.pick(3); n > 0; n-- {
		e, _ := g.aggregate(cols, kind)
		items = append(items, sqlparse.SelectItem{Expr: e, Alias: alias()})
	}
	var having sqlparse.Expr
	for n := []int{0, 1, 1, 2}[g.pick(4)]; grouped && n > 0; n-- {
		e, k := g.aggregate(cols, kind)
		if len(keys) > 0 && g.pick(4) == 0 {
			i := g.pick(len(keys))
			e, k = keys[i], keyKinds[i]
		}
		ops := []string{"<>", "<", "<=", ">", ">="} // "=" against a literal rarely holds
		var lit sqlparse.Expr = sqlparse.Num(float64(g.pick(4)))
		if k == relalg.KindString {
			lit = sqlparse.Str(string(rune('p' + g.pick(4))))
		}
		having = sqlparse.AndAll([]sqlparse.Expr{having, sqlparse.Bin(ops[g.pick(len(ops))], e, lit)})
	}
	return items, keys, having
}

// aggregate draws one aggregate term over cols and reports its kind.
func (g *qgen) aggregate(cols [][2]string, kindOf func(rel, name string) column) (sqlparse.Expr, relalg.Kind) {
	c := cols[g.pick(len(cols))]
	kind := kindOf(c[0], c[1]).kind
	call := func(name string) *sqlparse.FuncCall {
		return &sqlparse.FuncCall{Name: name, Args: []sqlparse.Expr{col(c[0], c[1])}}
	}
	var e sqlparse.Expr
	switch n := g.pick(8); {
	case n == 0:
		e, kind = &sqlparse.FuncCall{Name: "COUNT", Star: true}, relalg.KindNumber
	case n == 1:
		e, kind = call("COUNT"), relalg.KindNumber
	case n < 5 && kind == relalg.KindNumber:
		e = call([]string{"SUM", "AVG"}[g.pick(2)])
	default:
		e = call([]string{"MIN", "MAX"}[g.pick(2)])
	}
	if kind == relalg.KindNumber {
		switch g.pick(6) {
		case 0:
			e = sqlparse.Bin("+", e, sqlparse.Num(1))
		case 1:
			e = &sqlparse.UnaryExpr{Op: "-", X: e}
		case 2:
			e = sqlparse.Bin("*", e, sqlparse.Num(2))
		}
	}
	return e, kind
}

// orderAll orders by every select item (by alias), so the order — and a
// LIMIT's cut — is fixed up to rows that are NOT DISTINCT.
func (g *qgen) orderAll(sel *sqlparse.Select) {
	for _, it := range sel.Items {
		sel.OrderBy = append(sel.OrderBy, sqlparse.OrderItem{Expr: &sqlparse.ColRef{Column: it.Alias}, Desc: g.pick(2) == 0})
	}
	if g.pick(2) == 0 {
		sel.Limit = g.pick(12)
	}
}

func refs(from []string) []sqlparse.TableRef {
	out := make([]sqlparse.TableRef, len(from))
	for i, r := range from {
		out[i] = sqlparse.TableRef{Table: r}
	}
	return out
}

// query draws one statement: a plain SELECT (maybe DISTINCT), a grouped
// or global aggregate, or a UNION [ALL] of two SELECTs over one FROM
// list that differ in their filters — so a build shared between them is
// wrong unless its key covers those filters.
func (g *qgen) query() sqlparse.Statement {
	from, joins := g.from()
	sel := &sqlparse.Select{From: refs(from), Limit: -1, Where: g.where(from, joins)}
	switch kind := g.pick(10); {
	case kind < 4:
		sel.Items = g.items(from)
		sel.Distinct = g.pick(2) == 0 && from[len(from)-1] != "big"
		if g.pick(2) == 0 {
			g.orderAll(sel)
		}
	case kind < 7:
		sel.Items, sel.GroupBy, sel.Having = g.aggItems(columns(from), kindOf, kind < 6)
		if g.pick(2) == 0 {
			g.orderAll(sel)
		}
	default:
		return g.union(sel, from, joins)
	}
	return sel
}

// where draws a WHERE clause: the FROM list's join predicates and extra
// filters.
func (g *qgen) where(from []string, joins []sqlparse.Expr) sqlparse.Expr {
	return sqlparse.AndAll(append(append([]sqlparse.Expr(nil), joins...), g.filters(from)...))
}

// union draws a select list for sel and a second SELECT like it under
// other filters, and unites them, with ALL or without.
func (g *qgen) union(sel *sqlparse.Select, from []string, joins []sqlparse.Expr) *sqlparse.Union {
	sel.Items = g.items(from)
	other := *sel
	other.Where = g.where(from, joins)
	return &sqlparse.Union{Left: sel, Right: &other, All: g.pick(2) == 0}
}
