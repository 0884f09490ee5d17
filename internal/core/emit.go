package core

import (
	"fmt"

	"repro/internal/datalog"
	"repro/internal/domain"
	"repro/internal/sqlparse"
)

// emit turns one abductive solution into one sub-query of the mediated
// union. The abduced source atoms become the FROM clause (reusing the
// query's original bindings where possible, inventing aliases for
// ancillary sources); constant and duplicate-variable atom arguments and
// the residual constraints become the WHERE clause; the resolved answer
// terms become the SELECT list.
func (qc *queryCompile) emit(sol datalog.Solution) (*sqlparse.Select, error) {
	em := &emitter{qc: qc, varExpr: map[string]sqlparse.Expr{}}
	if err := em.placeAtoms(sol.Abduced); err != nil {
		return nil, err
	}

	var preds []sqlparse.Expr
	preds = append(preds, em.constPreds...)
	preds = append(preds, em.joinPreds...)
	for _, c := range sol.Constraints {
		p, err := em.renderConstraint(c)
		if err != nil {
			return nil, err
		}
		preds = append(preds, p)
	}

	var items []sqlparse.SelectItem
	for _, it := range qc.outItems {
		e, err := em.renderTerm(answer(it.term, sol.Bindings))
		if err != nil {
			return nil, fmt.Errorf("core: rendering output column %s: %w", it.name, err)
		}
		item := sqlparse.SelectItem{Expr: e, Alias: it.name}
		if c, ok := e.(*sqlparse.ColRef); ok && c.Column == it.name {
			item.Alias = "" // SELECT rl.cname reads better than rl.cname AS cname
		}
		items = append(items, item)
	}

	return &sqlparse.Select{
		Items: items,
		From:  em.from,
		Where: sqlparse.AndAll(preds),
		Limit: -1,
	}, nil
}

// emitOrder renders the compiled ORDER BY keys for a single-branch
// mediation.
func (qc *queryCompile) emitOrder(sol datalog.Solution) ([]sqlparse.OrderItem, error) {
	if len(qc.orderTerms) == 0 {
		return nil, nil
	}
	em := &emitter{qc: qc, varExpr: map[string]sqlparse.Expr{}}
	if err := em.placeAtoms(sol.Abduced); err != nil {
		return nil, err
	}
	var out []sqlparse.OrderItem
	for _, o := range qc.orderTerms {
		e, err := em.renderTerm(answer(o.term, sol.Bindings))
		if err != nil {
			return nil, fmt.Errorf("core: rendering ORDER BY key: %w", err)
		}
		out = append(out, sqlparse.OrderItem{Expr: e, Desc: o.desc})
	}
	return out, nil
}

// postOrder maps the compiled ORDER BY keys onto output column names for a
// multi-branch mediation.
func (qc *queryCompile) postOrder(sel *sqlparse.Select) ([]sqlparse.OrderItem, error) {
	var out []sqlparse.OrderItem
	for i, o := range qc.orderTerms {
		if o.name == "" {
			return nil, fmt.Errorf("core: ORDER BY key %d (%s) must be a projected column when the mediated query has several branches",
				i+1, sel.OrderBy[i].Expr)
		}
		out = append(out, sqlparse.OrderItem{Expr: &sqlparse.ColRef{Column: o.name}, Desc: o.desc})
	}
	return out, nil
}

// answer is the value a solution's bindings give a compiled term. They
// hold every query variable's value fully resolved and folded, so a
// variable is one lookup; only an expression over several is rebuilt and
// folded again.
func answer(t datalog.Term, bindings map[string]datalog.Term) datalog.Term {
	switch t := t.(type) {
	case datalog.Variable:
		if v, ok := bindings[t.Name]; ok {
			return v
		}
	case datalog.Compound:
		args := make([]datalog.Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = answer(a, bindings)
		}
		return datalog.SimplifyExpr(datalog.Compound{Functor: t.Functor, Args: args}, nil)
	}
	return t
}

type emitter struct {
	qc      *queryCompile
	from    []sqlparse.TableRef
	varExpr map[string]sqlparse.Expr
	// constPreds bind atom arguments that resolved to constants or
	// expressions (e.g. rl.currency = 'JPY'); joinPreds equate repeated
	// variables across atoms (e.g. r3.fromCur = rl.currency).
	constPreds []sqlparse.Expr
	joinPreds  []sqlparse.Expr
}

// placeAtoms assigns aliases and builds the variable→column map in a first
// pass, then renders constant bindings in a second pass (so expressions
// may reference columns of later atoms).
func (em *emitter) placeAtoms(abduced []datalog.Compound) error {
	type constArg struct {
		col  *sqlparse.ColRef
		term datalog.Term
	}
	var consts []constArg

	usedBindings := map[string]bool{}
	usedAliases := map[string]bool{}
	for _, b := range em.qc.bindings {
		usedAliases[b.name] = true // reserve original binding names
	}

	for _, atom := range abduced {
		rel, ok := domain.RelationOfPred(atom.Functor)
		if !ok {
			return fmt.Errorf("core: abduced non-relation atom %s", atom.String())
		}
		schema, ok := em.qc.m.Registry.Schema(rel)
		if !ok {
			return fmt.Errorf("core: abduced atom over unknown relation %s", rel)
		}
		// Choose an alias: the first unused original binding over this
		// relation, else the relation name, else relation_k.
		alias := ""
		for _, b := range em.qc.bindings {
			if b.relation == rel && !usedBindings[b.name] {
				alias = b.name
				usedBindings[b.name] = true
				break
			}
		}
		if alias == "" {
			alias = rel
			for k := 2; usedAliases[alias]; k++ {
				alias = fmt.Sprintf("%s_%d", rel, k)
			}
			usedAliases[alias] = true
		}
		ref := sqlparse.TableRef{Table: rel}
		if alias != rel {
			ref.Alias = alias
		}
		em.from = append(em.from, ref)

		for i, arg := range atom.Args {
			col := &sqlparse.ColRef{Table: alias, Column: schema.Columns[i].Name}
			if v, isVar := arg.(datalog.Variable); isVar {
				if prev, ok := em.varExpr[v.Name]; ok {
					em.joinPreds = append(em.joinPreds, sqlparse.Bin("=", prev, col))
				} else {
					em.varExpr[v.Name] = col
				}
				continue
			}
			consts = append(consts, constArg{col: col, term: arg})
		}
	}

	for _, c := range consts {
		e, err := em.renderTerm(c.term)
		if err != nil {
			return fmt.Errorf("core: rendering binding for %s: %w", c.col, err)
		}
		em.constPreds = append(em.constPreds, sqlparse.Bin("=", c.col, e))
	}
	return nil
}

// renderTerm converts a resolved datalog term into a SQL expression.
func (em *emitter) renderTerm(t datalog.Term) (sqlparse.Expr, error) {
	switch t := t.(type) {
	case datalog.Variable:
		e, ok := em.varExpr[t.Name]
		if !ok {
			return nil, fmt.Errorf("core: unconstrained variable %s in mediated query", t.Name)
		}
		return e, nil
	case datalog.Number:
		return sqlparse.NumberLit(float64(t)), nil
	case datalog.Str:
		return sqlparse.StringLit(string(t)), nil
	case datalog.Atom:
		return sqlparse.StringLit(string(t)), nil
	case datalog.Compound:
		var op string
		switch t.Functor {
		case datalog.FuncAdd:
			op = "+"
		case datalog.FuncSub:
			op = "-"
		case datalog.FuncMul:
			op = "*"
		case datalog.FuncDiv:
			op = "/"
		case datalog.FuncNeg:
			x, err := em.renderTerm(t.Args[0])
			if err != nil {
				return nil, err
			}
			return &sqlparse.UnaryExpr{Op: "-", X: x}, nil
		default:
			return nil, fmt.Errorf("core: cannot render %s as SQL", t.String())
		}
		l, err := em.renderTerm(t.Args[0])
		if err != nil {
			return nil, err
		}
		r, err := em.renderTerm(t.Args[1])
		if err != nil {
			return nil, err
		}
		return sqlparse.Bin(op, l, r), nil
	}
	return nil, fmt.Errorf("core: cannot render %v as SQL", t)
}

// renderConstraint converts a residual constraint atom into a WHERE
// predicate.
func (em *emitter) renderConstraint(c datalog.Compound) (sqlparse.Expr, error) {
	var op string
	switch c.Functor {
	case datalog.PredEq:
		op = "="
	case datalog.PredNeq:
		op = "<>"
	case datalog.PredLt:
		op = "<"
	case datalog.PredLe:
		op = "<="
	case datalog.PredGt:
		op = ">"
	case datalog.PredGe:
		op = ">="
	default:
		return nil, fmt.Errorf("core: unknown residual constraint %s", c.String())
	}
	l, err := em.renderTerm(c.Args[0])
	if err != nil {
		return nil, err
	}
	r, err := em.renderTerm(c.Args[1])
	if err != nil {
		return nil, err
	}
	return sqlparse.Bin(op, l, r), nil
}
