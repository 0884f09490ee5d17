// Package sqlparse provides the SQL front end of the COIN prototype: a
// lexer, an abstract syntax tree, a recursive-descent parser, and a
// printer. The mediator consumes and produces this AST; the multi-database
// access engine plans it; the printer regenerates the mediated SQL text the
// paper presents in Section 3.
//
// The supported dialect is the SELECT–PROJECT–JOIN–UNION core the paper's
// prototype exposed: SELECT [DISTINCT] items FROM tables WHERE expr
// [GROUP BY exprs [HAVING expr]] [ORDER BY items] [LIMIT n], combined with
// UNION / UNION ALL, with arithmetic, comparison and boolean expressions,
// and aggregate functions COUNT/SUM/AVG/MIN/MAX. An ORDER BY key may name
// a column the select list drops, except under SELECT DISTINCT, whose
// keys must be selected columns (the engine refuses others, naming the
// key).
package sqlparse

import "fmt"

// Statement is a SQL statement: *Select or *Union.
type Statement interface {
	stmt()
	// String renders the statement in canonical SQL (single line).
	String() string
}

// Select is a single SELECT block.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr // nil when absent
	GroupBy  []Expr
	Having   Expr // nil when absent
	OrderBy  []OrderItem
	Limit    int // -1 when absent
}

// Union combines two statements; All keeps duplicates.
type Union struct {
	Left, Right Statement
	All         bool
}

func (*Select) stmt() {}
func (*Union) stmt()  {}

// SelectItem is one projection: either a star (optionally table-qualified)
// or an expression with an optional alias.
type SelectItem struct {
	Star      bool
	StarTable string // for t.*
	Expr      Expr
	Alias     string
}

// TableRef names a relation in the FROM clause, with an optional alias.
type TableRef struct {
	Table string
	Alias string
}

// Binding returns the name by which columns reference this table: the
// alias when present, otherwise the table name.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Expr is a SQL scalar or boolean expression.
type Expr interface {
	expr()
	String() string
}

// ColRef references a column, optionally table-qualified.
type ColRef struct {
	Table  string // empty when unqualified
	Column string
}

// NumberLit is a numeric literal.
type NumberLit float64

// StringLit is a string literal.
type StringLit string

// BoolLit is TRUE or FALSE.
type BoolLit bool

// NullLit is the NULL literal.
type NullLit struct{}

// BinaryExpr applies a binary operator. Op is one of:
// OR AND = <> < > <= >= + - * /
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op string // "NOT" or "-"
	X  Expr
}

// FuncCall is an aggregate or scalar function call. Star marks COUNT(*).
type FuncCall struct {
	Name string
	Star bool
	Args []Expr
}

// IsNull tests an expression against NULL (negated when Not is set).
type IsNull struct {
	X   Expr
	Not bool
}

func (*ColRef) expr()     {}
func (NumberLit) expr()   {}
func (StringLit) expr()   {}
func (BoolLit) expr()     {}
func (NullLit) expr()     {}
func (*BinaryExpr) expr() {}
func (*UnaryExpr) expr()  {}
func (*FuncCall) expr()   {}
func (*IsNull) expr()     {}

// Col builds a qualified column reference.
func Col(table, column string) *ColRef { return &ColRef{Table: table, Column: column} }

// Num builds a numeric literal.
func Num(v float64) NumberLit { return NumberLit(v) }

// Str builds a string literal.
func Str(s string) StringLit { return StringLit(s) }

// Bin builds a binary expression.
func Bin(op string, l, r Expr) *BinaryExpr { return &BinaryExpr{Op: op, L: l, R: r} }

// AndAll folds a slice of predicates with AND, skipping nil ones; nil
// when none is left.
func AndAll(preds []Expr) Expr {
	var out Expr
	for _, p := range preds {
		if p == nil {
			continue
		}
		if out == nil {
			out = p
			continue
		}
		out = Bin("AND", out, p)
	}
	return out
}

// Conjuncts flattens nested ANDs into a slice of predicates.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// UnionAll folds statements into a chain of UNIONs (set semantics, as in
// the paper's mediated query).
func UnionAll(stmts []Statement) Statement {
	if len(stmts) == 0 {
		return nil
	}
	out := stmts[0]
	for _, s := range stmts[1:] {
		out = &Union{Left: out, Right: s}
	}
	return out
}

// Selects flattens a UNION tree into its SELECT branches, left to right.
func Selects(s Statement) []*Select {
	switch s := s.(type) {
	case *Select:
		return []*Select{s}
	case *Union:
		return append(Selects(s.Left), Selects(s.Right)...)
	}
	return nil
}

// WalkExprs calls fn for every expression node reachable from e,
// pre-order. fn returning false prunes the subtree.
func WalkExprs(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch e := e.(type) {
	case *BinaryExpr:
		WalkExprs(e.L, fn)
		WalkExprs(e.R, fn)
	case *UnaryExpr:
		WalkExprs(e.X, fn)
	case *FuncCall:
		for _, a := range e.Args {
			WalkExprs(a, fn)
		}
	case *IsNull:
		WalkExprs(e.X, fn)
	}
}

// ColumnsOf returns the column references in es, in order; a column
// referenced twice is returned twice.
func ColumnsOf(es ...Expr) []*ColRef {
	var out []*ColRef
	for _, e := range es {
		WalkExprs(e, func(x Expr) bool {
			if c, ok := x.(*ColRef); ok {
				out = append(out, c)
			}
			return true
		})
	}
	return out
}

// StatementColumns returns the distinct column references appearing
// anywhere in the statement.
func StatementColumns(s Statement) []*ColRef {
	var out []*ColRef
	seen := map[string]bool{}
	add := func(e Expr) {
		for _, c := range ColumnsOf(e) {
			key := c.Table + "." + c.Column
			if !seen[key] {
				seen[key] = true
				out = append(out, c)
			}
		}
	}
	for _, sel := range Selects(s) {
		for _, it := range sel.Items {
			if !it.Star {
				add(it.Expr)
			}
		}
		add(sel.Where)
		for _, g := range sel.GroupBy {
			add(g)
		}
		add(sel.Having)
		for _, o := range sel.OrderBy {
			add(o.Expr)
		}
	}
	return out
}

// CloneExpr deep-copies an expression.
func CloneExpr(e Expr) Expr {
	switch e := e.(type) {
	case nil:
		return nil
	case *ColRef:
		c := *e
		return &c
	case NumberLit, StringLit, BoolLit, NullLit:
		return e
	case *BinaryExpr:
		return &BinaryExpr{Op: e.Op, L: CloneExpr(e.L), R: CloneExpr(e.R)}
	case *UnaryExpr:
		return &UnaryExpr{Op: e.Op, X: CloneExpr(e.X)}
	case *FuncCall:
		args := make([]Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = CloneExpr(a)
		}
		return &FuncCall{Name: e.Name, Star: e.Star, Args: args}
	case *IsNull:
		return &IsNull{X: CloneExpr(e.X), Not: e.Not}
	default:
		panic(fmt.Sprintf("sqlparse: CloneExpr: unknown node %T", e))
	}
}
