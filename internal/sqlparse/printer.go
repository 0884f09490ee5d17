package sqlparse

import (
	"strconv"
	"strings"
)

// This file renders the AST back to SQL. Two forms are provided:
// String() produces a canonical single-line rendering (used for
// round-tripping and equality in tests), and Pretty() produces the
// multi-line layout the paper uses for the mediated query in Section 3.

func (s *Select) String() string { return s.render("", " ") }
func (u *Union) String() string {
	op := " UNION "
	if u.All {
		op = " UNION ALL "
	}
	return u.Left.String() + op + u.Right.String()
}

// Pretty renders a statement with clause-per-line layout and UNION
// separators on their own lines, mirroring the presentation in the paper.
func Pretty(s Statement) string {
	switch s := s.(type) {
	case *Select:
		return s.render("", "\n")
	case *Union:
		op := "UNION"
		if s.All {
			op = "UNION ALL"
		}
		return Pretty(s.Left) + "\n" + op + "\n" + Pretty(s.Right)
	}
	return ""
}

func (s *Select) render(indent, sep string) string {
	var b strings.Builder
	b.WriteString(indent + "SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	items := make([]string, len(s.Items))
	for i, it := range s.Items {
		items[i] = it.render()
	}
	b.WriteString(strings.Join(items, ", "))
	b.WriteString(sep + indent + "FROM ")
	froms := make([]string, len(s.From))
	for i, f := range s.From {
		froms[i] = f.render()
	}
	b.WriteString(strings.Join(froms, ", "))
	if s.Where != nil {
		b.WriteString(sep + indent + "WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		gs := make([]string, len(s.GroupBy))
		for i, g := range s.GroupBy {
			gs[i] = g.String()
		}
		b.WriteString(sep + indent + "GROUP BY " + strings.Join(gs, ", "))
		if s.Having != nil {
			b.WriteString(sep + indent + "HAVING " + s.Having.String())
		}
	}
	if len(s.OrderBy) > 0 {
		os := make([]string, len(s.OrderBy))
		for i, o := range s.OrderBy {
			os[i] = o.Expr.String()
			if o.Desc {
				os[i] += " DESC"
			}
		}
		b.WriteString(sep + indent + "ORDER BY " + strings.Join(os, ", "))
	}
	if s.Limit >= 0 {
		b.WriteString(sep + indent + "LIMIT " + strconv.Itoa(s.Limit))
	}
	return b.String()
}

func (it SelectItem) render() string {
	if it.Star {
		if it.StarTable != "" {
			return it.StarTable + ".*"
		}
		return "*"
	}
	s := it.Expr.String()
	if it.Alias != "" {
		s += " AS " + it.Alias
	}
	return s
}

func (t TableRef) render() string {
	if t.Alias != "" {
		return t.Table + " " + t.Alias
	}
	return t.Table
}

// Expression rendering with minimal parentheses. Precedence mirrors the
// parser: OR=0, AND=1, NOT=2, comparison=3, additive=4, multiplicative=5.
func exprLevel(op string) int {
	switch op {
	case "OR":
		return 0
	case "AND":
		return 1
	case "=", "<>", "<", ">", "<=", ">=":
		return 3
	case "+", "-":
		return 4
	case "*", "/":
		return 5
	}
	return 6
}

func renderExpr(e Expr, outer int) string {
	switch e := e.(type) {
	case *BinaryExpr:
		lvl := exprLevel(e.Op)
		l := renderExpr(e.L, lvl-1) // left-associative: equal level OK on the left
		r := renderExpr(e.R, lvl)
		s := l + " " + e.Op + " " + r
		if lvl <= outer {
			return "(" + s + ")"
		}
		return s
	case *UnaryExpr:
		if e.Op == "NOT" {
			s := "NOT " + renderExpr(e.X, 2)
			if 2 <= outer {
				return "(" + s + ")"
			}
			return s
		}
		// A space keeps a minus over a minus from printing as "--",
		// which would open a comment.
		x := renderExpr(e.X, 5)
		if strings.HasPrefix(x, "-") {
			return "- " + x
		}
		return "-" + x
	default:
		return e.String()
	}
}

func (c *ColRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

func (n NumberLit) String() string {
	return strconv.FormatFloat(float64(n), 'f', -1, 64)
}

func (s StringLit) String() string {
	return "'" + strings.ReplaceAll(string(s), "'", "''") + "'"
}

func (b BoolLit) String() string {
	if b {
		return "TRUE"
	}
	return "FALSE"
}

func (NullLit) String() string { return "NULL" }

func (b *BinaryExpr) String() string { return renderExpr(b, -1) }
func (u *UnaryExpr) String() string  { return renderExpr(u, -1) }

func (f *FuncCall) String() string {
	if f.Star {
		return f.Name + "(*)"
	}
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	return f.Name + "(" + strings.Join(args, ", ") + ")"
}

func (i *IsNull) String() string {
	if i.Not {
		return i.X.String() + " IS NOT NULL"
	}
	return i.X.String() + " IS NULL"
}
