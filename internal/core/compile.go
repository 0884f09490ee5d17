package core

import (
	"fmt"

	"repro/internal/datalog"
	"repro/internal/domain"
	"repro/internal/sqlparse"
)

// queryCompile holds the compilation of one SELECT into abductive goals,
// plus everything emit needs to turn solutions back into SQL branches.
type queryCompile struct {
	m        *Mediator
	sel      *sqlparse.Select
	receiver string

	prog  *datalog.Program // registry program + query-local OR clauses
	goals []datalog.Term

	// abstract makes compileOperand count parameters (shape.go) into
	// params; only the referee's oracle compiles without it.
	abstract bool
	params   int

	bindings []bindingInfo
	semAdded map[string]bool

	outItems   []outItem
	orderTerms []orderTerm

	aggregated bool
	post       *sqlparse.Select // the post-union step of an aggregated query

	auxCount int
}

type bindingInfo struct {
	name     string // alias or table name
	relation string
	rawVars  []datalog.Term
}

type outItem struct {
	name    string
	term    datalog.Term
	exprStr string // original expression text, for ORDER BY matching
}

type orderTerm struct {
	term datalog.Term
	desc bool
	name string // output column this key maps to ("" when not projected)
}

func (m *Mediator) compileQuery(sel *sqlparse.Select, receiver string, base *datalog.Program, abstract bool) (*queryCompile, error) {
	qc := &queryCompile{
		m:        m,
		sel:      sel,
		receiver: receiver,
		prog:     base, // cloned lazily when OR clauses are needed
		abstract: abstract,
		semAdded: map[string]bool{},
	}
	if err := qc.compileFrom(); err != nil {
		return nil, err
	}
	qc.aggregated = len(sel.GroupBy) > 0 || anyAggregate(sel)

	// WHERE first so its goals follow the relation and sem goals that
	// compileScalar adds on demand (goal order: rel atoms, sem goals,
	// comparisons).
	var whereGoals []datalog.Term
	if sel.Where != nil {
		gs, err := qc.compileBool(sel.Where, false)
		if err != nil {
			return nil, err
		}
		whereGoals = gs
	}

	if qc.aggregated {
		if err := qc.compileAggregated(); err != nil {
			return nil, err
		}
	} else {
		if err := qc.compilePlainItems(); err != nil {
			return nil, err
		}
		if err := qc.compileOrderBy(); err != nil {
			return nil, err
		}
	}
	qc.goals = append(qc.goals, whereGoals...)
	return qc, nil
}

// compileFrom registers one abducible relation goal per FROM entry.
func (qc *queryCompile) compileFrom() error {
	if len(qc.sel.From) == 0 {
		return fmt.Errorf("core: query has no FROM clause")
	}
	seen := map[string]bool{}
	for _, ref := range qc.sel.From {
		schema, ok := qc.m.Registry.Schema(ref.Table)
		if !ok {
			return fmt.Errorf("core: unknown relation %s (registered: %v)", ref.Table, qc.m.Registry.RelationNames())
		}
		b := ref.Binding()
		if seen[b] {
			return fmt.Errorf("core: duplicate binding %s in FROM", b)
		}
		seen[b] = true
		info := bindingInfo{name: b, relation: ref.Table}
		for _, col := range schema.Columns {
			info.rawVars = append(info.rawVars, datalog.NewVar("R_"+b+"_"+col.Name))
		}
		qc.bindings = append(qc.bindings, info)
		qc.goals = append(qc.goals, datalog.Comp(domain.RelPred(ref.Table), info.rawVars...))
	}
	return nil
}

// resolveCol finds the binding and column for a column reference.
func (qc *queryCompile) resolveCol(c *sqlparse.ColRef) (*bindingInfo, int, error) {
	if c.Table != "" {
		for i := range qc.bindings {
			b := &qc.bindings[i]
			if b.name == c.Table {
				schema, _ := qc.m.Registry.Schema(b.relation)
				idx := schema.Index(c.Column)
				if idx < 0 {
					return nil, 0, fmt.Errorf("core: relation %s (binding %s) has no column %s", b.relation, b.name, c.Column)
				}
				return b, idx, nil
			}
		}
		return nil, 0, fmt.Errorf("core: no FROM binding named %s for column %s", c.Table, c)
	}
	var found *bindingInfo
	foundIdx := -1
	for i := range qc.bindings {
		b := &qc.bindings[i]
		schema, _ := qc.m.Registry.Schema(b.relation)
		if idx := schema.Index(c.Column); idx >= 0 {
			if found != nil {
				return nil, 0, fmt.Errorf("core: column %s is ambiguous (in %s and %s)", c.Column, found.name, b.name)
			}
			found, foundIdx = b, idx
		}
	}
	if found == nil {
		return nil, 0, fmt.Errorf("core: unknown column %s", c.Column)
	}
	return found, foundIdx, nil
}

// valueTerm returns the datalog term carrying the receiver-context value
// of a column: the raw relation variable for context-insensitive columns,
// or the converted variable defined by a sem_ goal (added on first use).
func (qc *queryCompile) valueTerm(c *sqlparse.ColRef) (datalog.Term, error) {
	b, idx, err := qc.resolveCol(c)
	if err != nil {
		return nil, err
	}
	schema, _ := qc.m.Registry.Schema(b.relation)
	col := schema.Columns[idx].Name
	needs, err := qc.m.Registry.NeedsConversion(b.relation, col)
	if err != nil {
		return nil, err
	}
	if !needs {
		return b.rawVars[idx], nil
	}
	key := b.name + "\x00" + col
	v := datalog.NewVar("C_" + b.name + "_" + col)
	if !qc.semAdded[key] {
		qc.semAdded[key] = true
		args := append(append([]datalog.Term(nil), b.rawVars...), v)
		qc.goals = append(qc.goals, datalog.Comp(domain.SemPred(qc.receiver, b.relation, col), args...))
	}
	return v, nil
}

// compileScalar translates a scalar SQL expression into a datalog term.
func (qc *queryCompile) compileScalar(e sqlparse.Expr) (datalog.Term, error) {
	switch e := e.(type) {
	case *sqlparse.ColRef:
		return qc.valueTerm(e)
	case sqlparse.NumberLit:
		return datalog.Number(float64(e)), nil
	case sqlparse.StringLit:
		return datalog.Str(string(e)), nil
	case *sqlparse.UnaryExpr:
		if e.Op != "-" {
			return nil, fmt.Errorf("core: %s is not a scalar operator", e.Op)
		}
		x, err := qc.compileScalar(e.X)
		if err != nil {
			return nil, err
		}
		return datalog.Comp(datalog.FuncNeg, x), nil
	case *sqlparse.BinaryExpr:
		var f string
		switch e.Op {
		case "+":
			f = datalog.FuncAdd
		case "-":
			f = datalog.FuncSub
		case "*":
			f = datalog.FuncMul
		case "/":
			f = datalog.FuncDiv
		default:
			return nil, fmt.Errorf("core: %q in scalar position", e.Op)
		}
		l, err := qc.compileScalar(e.L)
		if err != nil {
			return nil, err
		}
		r, err := qc.compileScalar(e.R)
		if err != nil {
			return nil, err
		}
		return datalog.Comp(f, l, r), nil
	case *sqlparse.FuncCall:
		return nil, fmt.Errorf("core: aggregate %s is only allowed in SELECT/HAVING/ORDER BY of a grouped query", e.Name)
	default:
		return nil, fmt.Errorf("core: cannot mediate expression %s", e.String())
	}
}

// constraintPred maps SQL comparison operators to constraint predicates.
func constraintPred(op string, negated bool) (string, error) {
	if negated {
		switch op {
		case "=":
			op = "<>"
		case "<>":
			op = "="
		case "<":
			op = ">="
		case ">=":
			op = "<"
		case ">":
			op = "<="
		case "<=":
			op = ">"
		default:
			return "", fmt.Errorf("core: cannot negate %q", op)
		}
	}
	switch op {
	case "=":
		return datalog.PredEq, nil
	case "<>":
		return datalog.PredNeq, nil
	case "<":
		return datalog.PredLt, nil
	case "<=":
		return datalog.PredLe, nil
	case ">":
		return datalog.PredGt, nil
	case ">=":
		return datalog.PredGe, nil
	}
	return "", fmt.Errorf("core: unknown comparison %q", op)
}

// compileBool translates a boolean WHERE expression into goals, pushing
// negation down to comparisons and compiling OR into a query-local
// auxiliary predicate with one clause per arm (so the abductive case
// enumeration handles disjunction natively).
func (qc *queryCompile) compileBool(e sqlparse.Expr, negated bool) ([]datalog.Term, error) {
	switch e := e.(type) {
	case *sqlparse.BinaryExpr:
		switch e.Op {
		case "AND", "OR":
			conj := (e.Op == "AND") != negated // negation swaps AND/OR
			l, err := qc.compileBool(e.L, negated)
			if err != nil {
				return nil, err
			}
			r, err := qc.compileBool(e.R, negated)
			if err != nil {
				return nil, err
			}
			if conj {
				return append(l, r...), nil
			}
			return qc.orGoal(l, r)
		default:
			pred, err := constraintPred(e.Op, negated)
			if err != nil {
				return nil, err
			}
			l, err := qc.compileOperand(e.Op, e.L)
			if err != nil {
				return nil, err
			}
			r, err := qc.compileOperand(e.Op, e.R)
			if err != nil {
				return nil, err
			}
			return []datalog.Term{datalog.Comp(pred, l, r)}, nil
		}
	case *sqlparse.UnaryExpr:
		if e.Op == "NOT" {
			return qc.compileBool(e.X, !negated)
		}
		return nil, fmt.Errorf("core: %q is not a boolean operator", e.Op)
	case sqlparse.BoolLit:
		if bool(e) != negated {
			return nil, nil // trivially true
		}
		return []datalog.Term{datalog.Atom("fail")}, nil
	case *sqlparse.IsNull:
		return nil, fmt.Errorf("core: IS NULL cannot be mediated (COIN sources are null-free)")
	default:
		return nil, fmt.Errorf("core: %s is not a boolean expression", e.String())
	}
}

// orGoal wraps two goal lists as a fresh auxiliary predicate with two
// clauses, returning the single goal invoking it.
func (qc *queryCompile) orGoal(left, right []datalog.Term) ([]datalog.Term, error) {
	var vars []datalog.Term
	seen := map[string]bool{}
	collect := func(goals []datalog.Term) {
		for _, g := range goals {
			for _, v := range datalog.Vars(g, nil) {
				if !seen[v.Name] {
					seen[v.Name] = true
					vars = append(vars, v)
				}
			}
		}
	}
	collect(left)
	collect(right)
	qc.auxCount++
	pred := fmt.Sprintf("qor_%d", qc.auxCount)
	// The base program is shared across queries; clone before the first
	// query-local clause.
	if qc.auxCount == 1 {
		qc.prog = qc.prog.Clone()
	}
	head := datalog.Comp(pred, vars...)
	qc.prog.Add(
		datalog.Clause{Head: head, Body: left},
		datalog.Clause{Head: head, Body: right},
	)
	return []datalog.Term{head}, nil
}

// compilePlainItems handles the non-aggregated SELECT list.
func (qc *queryCompile) compilePlainItems() error {
	used := map[string]bool{}
	addItem := func(name string, term datalog.Term, exprStr string) {
		if used[name] {
			for i := 2; ; i++ {
				cand := fmt.Sprintf("%s_%d", name, i)
				if !used[cand] {
					name = cand
					break
				}
			}
		}
		used[name] = true
		qc.outItems = append(qc.outItems, outItem{name: name, term: term, exprStr: exprStr})
	}
	for i, it := range qc.sel.Items {
		if it.Star {
			if err := qc.expandStar(it.StarTable, addItem); err != nil {
				return err
			}
			continue
		}
		term, err := qc.compileScalar(it.Expr)
		if err != nil {
			return err
		}
		name := it.Alias
		if name == "" {
			if c, ok := it.Expr.(*sqlparse.ColRef); ok {
				name = c.Column
			} else {
				name = fmt.Sprintf("col%d", i+1)
			}
		}
		addItem(name, term, it.Expr.String())
	}
	return nil
}

func (qc *queryCompile) expandStar(table string, addItem func(string, datalog.Term, string)) error {
	for i := range qc.bindings {
		b := &qc.bindings[i]
		if table != "" && b.name != table {
			continue
		}
		schema, _ := qc.m.Registry.Schema(b.relation)
		for _, col := range schema.Columns {
			ref := &sqlparse.ColRef{Table: b.name, Column: col.Name}
			term, err := qc.valueTerm(ref)
			if err != nil {
				return err
			}
			addItem(col.Name, term, ref.String())
		}
		if table != "" {
			return nil
		}
	}
	if table != "" {
		return fmt.Errorf("core: no FROM binding named %s for %s.*", table, table)
	}
	return nil
}

// compileOrderBy compiles ORDER BY keys as terms and maps them to output
// columns where possible (needed when the mediated union has several
// branches and ordering must run post-union).
func (qc *queryCompile) compileOrderBy() error {
	for _, o := range qc.sel.OrderBy {
		// A key naming a projected column (by alias or by repeating its
		// expression) reuses that column's compiled term, so ORDER BY
		// profit works when profit is an output alias.
		want := o.Expr.String()
		var term datalog.Term
		name := ""
		for _, it := range qc.outItems {
			if it.exprStr == want || it.name == want {
				term, name = it.term, it.name
				break
			}
		}
		if term == nil {
			t, err := qc.compileScalar(o.Expr)
			if err != nil {
				return err
			}
			term = t
		}
		qc.orderTerms = append(qc.orderTerms, orderTerm{term: term, desc: o.Desc, name: name})
	}
	return nil
}

// anyAggregate reports whether the query uses aggregate functions.
func anyAggregate(sel *sqlparse.Select) bool {
	check := func(e sqlparse.Expr) bool {
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
	for _, it := range sel.Items {
		if !it.Star && check(it.Expr) {
			return true
		}
	}
	if sel.Having != nil && check(sel.Having) {
		return true
	}
	for _, o := range sel.OrderBy {
		if check(o.Expr) {
			return true
		}
	}
	return false
}

// compileAggregated handles grouped/aggregate queries: the branches
// project group keys and converted aggregate arguments; the Post step
// groups and aggregates over the union of the branches. Branches are
// mutually exclusive cases, so aggregating over their UNION ALL equals
// aggregating over the (virtual) mediated relation.
func (qc *queryCompile) compileAggregated() error {
	post := &sqlparse.Select{Limit: qc.sel.Limit, Distinct: qc.sel.Distinct}

	// Group keys become branch output columns g*.
	keyNames := make([]string, len(qc.sel.GroupBy))
	keyStrs := make([]string, len(qc.sel.GroupBy))
	used := map[string]bool{}
	for j, k := range qc.sel.GroupBy {
		term, err := qc.compileScalar(k)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("g%d", j)
		if c, ok := k.(*sqlparse.ColRef); ok && !used[c.Column] {
			name = c.Column
		}
		used[name] = true
		keyNames[j], keyStrs[j] = name, k.String()
		qc.outItems = append(qc.outItems, outItem{name: name, term: term, exprStr: k.String()})
		post.GroupBy = append(post.GroupBy, &sqlparse.ColRef{Column: name})
	}

	// Aggregate calls become branch output columns a*.
	aggCols := map[string]string{} // FuncCall.String() -> column name
	var collectErr error
	collectAggs := func(e sqlparse.Expr) {
		sqlparse.WalkExprs(e, func(x sqlparse.Expr) bool {
			fc, ok := x.(*sqlparse.FuncCall)
			if !ok {
				return true
			}
			key := fc.String()
			if _, done := aggCols[key]; done {
				return false
			}
			name := fmt.Sprintf("a%d", len(aggCols))
			aggCols[key] = name
			if !fc.Star {
				if len(fc.Args) != 1 {
					collectErr = fmt.Errorf("core: aggregate %s wants 1 argument", fc.Name)
					return false
				}
				term, err := qc.compileScalar(fc.Args[0])
				if err != nil {
					collectErr = err
					return false
				}
				qc.outItems = append(qc.outItems, outItem{name: name, term: term, exprStr: fc.String()})
			}
			return false
		})
	}
	for _, it := range qc.sel.Items {
		if it.Star {
			return fmt.Errorf("core: SELECT * cannot be combined with aggregation")
		}
		collectAggs(it.Expr)
	}
	if qc.sel.Having != nil {
		collectAggs(qc.sel.Having)
	}
	for _, o := range qc.sel.OrderBy {
		collectAggs(o.Expr)
	}
	if collectErr != nil {
		return collectErr
	}

	// rewrite maps an original expression onto the branch output columns.
	var rewrite func(e sqlparse.Expr) (sqlparse.Expr, error)
	rewrite = func(e sqlparse.Expr) (sqlparse.Expr, error) {
		for j, ks := range keyStrs {
			if e.String() == ks {
				return &sqlparse.ColRef{Column: keyNames[j]}, nil
			}
		}
		switch e := e.(type) {
		case *sqlparse.FuncCall:
			if e.Star {
				return &sqlparse.FuncCall{Name: e.Name, Star: true}, nil
			}
			return &sqlparse.FuncCall{Name: e.Name, Args: []sqlparse.Expr{&sqlparse.ColRef{Column: aggCols[e.String()]}}}, nil
		case *sqlparse.BinaryExpr:
			l, err := rewrite(e.L)
			if err != nil {
				return nil, err
			}
			r, err := rewrite(e.R)
			if err != nil {
				return nil, err
			}
			return sqlparse.Bin(e.Op, l, r), nil
		case *sqlparse.UnaryExpr:
			x, err := rewrite(e.X)
			if err != nil {
				return nil, err
			}
			return &sqlparse.UnaryExpr{Op: e.Op, X: x}, nil
		case sqlparse.NumberLit, sqlparse.StringLit, sqlparse.BoolLit, sqlparse.NullLit:
			return e, nil
		case *sqlparse.ColRef:
			return nil, fmt.Errorf("core: column %s must appear in GROUP BY or inside an aggregate", e)
		default:
			return nil, fmt.Errorf("core: cannot rewrite %s over the mediated union", e.String())
		}
	}

	origStrs := make([]string, len(qc.sel.Items))
	for i, it := range qc.sel.Items {
		origStrs[i] = it.Expr.String()
		re, err := rewrite(it.Expr)
		if err != nil {
			return err
		}
		alias := it.Alias
		if alias == "" {
			if c, ok := re.(*sqlparse.ColRef); ok {
				alias = c.Column
			} else {
				alias = fmt.Sprintf("col%d", i+1)
			}
		}
		post.Items = append(post.Items, sqlparse.SelectItem{Expr: re, Alias: alias})
	}
	if qc.sel.Having != nil {
		re, err := rewrite(qc.sel.Having)
		if err != nil {
			return err
		}
		post.Having = re
	}
	// ORDER BY runs over the aggregated output, whose columns are the
	// item aliases: keys must name an output column, by alias or by
	// repeating the item expression.
	for _, o := range qc.sel.OrderBy {
		name := ""
		for i, it := range post.Items {
			if origStrs[i] == o.Expr.String() || (func() bool {
				c, ok := o.Expr.(*sqlparse.ColRef)
				return ok && c.Table == "" && c.Column == it.Alias
			})() {
				name = it.Alias
				break
			}
		}
		if name == "" {
			return fmt.Errorf("core: ORDER BY key %s of an aggregated query must be a projected column", o.Expr)
		}
		post.OrderBy = append(post.OrderBy, sqlparse.OrderItem{Expr: &sqlparse.ColRef{Column: name}, Desc: o.Desc})
	}
	qc.post = post
	return nil
}
