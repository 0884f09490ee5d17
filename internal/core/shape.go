package core

import (
	"repro/internal/datalog"
	"repro/internal/sqlparse"
)

// Receivers send the same few query shapes over and over with a different
// constant, so the mediator abduces per shape, not per text (ARCHITECTURE.md
// "Mediating the query shape"). A numeric literal that is a direct operand
// of an ordered comparison in WHERE is a parameter: it compiles to the
// ground term $(i), which no comparison can decide — a value unknown at
// mediation time, as source data is to the solver — and instantiate puts
// the request's literal in its place. A parameter occurs in nothing but
// ordered constraints, so all that can depend on its value (ground
// decisions, complements, duplicates, the residue's sort) is Normalize's.

const (
	paramFunctor = "$"
	// maxShapes caps the derivations memoised per compiled program; at
	// the cap one of them, whichever the map yields first, is evicted.
	maxShapes = 64
	// maxShapeText caps the canonical text of a memoised shape: a longer
	// statement is mediated and not retained.
	maxShapeText = 2048
)

// shape is the parametric derivation of one query shape. It is immutable
// once published.
type shape struct {
	qc    *queryCompile      // what emit reads; program and goals dropped
	sols  []datalog.Solution // constraints mention parameters
	depth int                // the resolution bound the solve ran under
}

// isParam reports whether operand e of comparison op is a parameter.
func isParam(op string, e sqlparse.Expr) bool {
	_, num := e.(sqlparse.NumberLit)
	return num && (op == "<" || op == "<=" || op == ">" || op == ">=")
}

// shapeOf returns the key of a SELECT's shape — its canonical text with
// every parameter zeroed, which is injective because a parameter position
// is one in every query — and the literals found there, in the order
// compileBool reaches them.
func shapeOf(sel *sqlparse.Select) (string, []float64) {
	var lits []float64
	if where := zeroParams("", sel.Where, &lits); len(lits) > 0 {
		zeroed := *sel
		zeroed.Where = where
		sel = &zeroed
	}
	return sel.String(), lits
}

// zeroParams copies e, an operand of op, with every parameter zeroed and
// its value appended to lits. It walks left to right as compileBool does;
// where it looks deeper (a comparison inside arithmetic) compiling fails.
func zeroParams(op string, e sqlparse.Expr, lits *[]float64) sqlparse.Expr {
	switch e := e.(type) {
	case sqlparse.NumberLit:
		if isParam(op, e) {
			*lits = append(*lits, float64(e))
			return sqlparse.NumberLit(0)
		}
	case *sqlparse.BinaryExpr:
		return sqlparse.Bin(e.Op, zeroParams(e.Op, e.L, lits), zeroParams(e.Op, e.R, lits))
	case *sqlparse.UnaryExpr:
		return &sqlparse.UnaryExpr{Op: e.Op, X: zeroParams(e.Op, e.X, lits)}
	}
	return e
}

// compileOperand compiles one side of a comparison: a parameter becomes
// the next $(i), anything else is a scalar.
func (qc *queryCompile) compileOperand(op string, e sqlparse.Expr) (datalog.Term, error) {
	if qc.abstract && isParam(op, e) {
		qc.params++
		return datalog.Comp(paramFunctor, datalog.Number(qc.params-1)), nil
	}
	return qc.compileScalar(e)
}

// instantiate puts one request's literals in place of the parameters and
// every solution's residue back through Normalize: a branch now
// inconsistent is dropped, constraints now entailed or duplicated are
// dropped, the rest re-sorted. Bindings, Abduced and Trace are shared with
// the shape; the constraints are the caller's.
func (sh *shape) instantiate(lits []float64) []datalog.Solution {
	out := make([]datalog.Solution, 0, len(sh.sols))
	for _, sol := range sh.sols {
		cs := append([]datalog.Compound(nil), sol.Constraints...)
		for i := range cs {
			for j, a := range cs[i].Args {
				if p, ok := a.(datalog.Compound); ok && p.Functor == paramFunctor {
					args := append([]datalog.Term(nil), cs[i].Args...) // the shape's stay as they are
					args[j] = datalog.Number(lits[int(p.Args[0].(datalog.Number))])
					cs[i].Args = args
				}
			}
		}
		cs, ok := datalog.NormalizeConstraints(cs)
		if !ok {
			continue
		}
		sol.Constraints = cs
		out = append(out, sol)
	}
	return out
}

// publish memoises sh on the program it was derived from, evicting some
// other shape at the cap. If Invalidate retired c meanwhile this writes
// into garbage, so a stale shape cannot be served.
func (m *Mediator) publish(c *compiled, key string, sh *shape) {
	if len(key) > maxShapeText {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, held := c.shapes[key]; !held && len(c.shapes) == maxShapes {
		for victim := range c.shapes {
			delete(c.shapes, victim)
			break
		}
	}
	c.shapes[key] = sh
}
