package datalog

import "strings"

// Clause is a definite clause Head :- Body. A fact has an empty body.
type Clause struct {
	Head Compound
	Body []Term
}

// String renders the clause in concrete syntax.
func (c Clause) String() string {
	if len(c.Body) == 0 {
		return c.Head.String() + "."
	}
	parts := make([]string, len(c.Body))
	for i, b := range c.Body {
		parts[i] = b.String()
	}
	return c.Head.String() + " :- " + strings.Join(parts, ", ") + "."
}

// Fact builds a bodyless clause.
func Fact(functor string, args ...Term) Clause {
	return Clause{Head: Comp(functor, args...)}
}

// predKey identifies a predicate by name and arity.
type predKey struct {
	name  string
	arity int
}

// Program is an ordered clause store indexed by predicate name/arity.
// Clause order within a predicate is source order (Prolog-style), which
// gives deterministic case enumeration during mediation. Solving only
// reads a Program, so concurrent solvers may share one as long as no
// goroutine Adds to it meanwhile.
type Program struct {
	clauses map[predKey][]Clause
	order   []predKey // registration order, for deterministic dumps
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{clauses: map[predKey][]Clause{}}
}

// Add appends clauses to the program.
func (p *Program) Add(cs ...Clause) {
	for _, c := range cs {
		k := predKey{c.Head.Functor, len(c.Head.Args)}
		if _, ok := p.clauses[k]; !ok {
			p.order = append(p.order, k)
		}
		p.clauses[k] = append(p.clauses[k], c)
	}
}

// Clauses returns the clauses for the given predicate, in source order.
func (p *Program) Clauses(name string, arity int) []Clause {
	return p.clauses[predKey{name, arity}]
}

// String dumps the program in registration order.
func (p *Program) String() string {
	var b strings.Builder
	for _, k := range p.order {
		for _, c := range p.clauses[k] {
			b.WriteString(c.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Clone returns a deep-enough copy: clause slices are copied, terms are
// shared (terms are immutable by convention).
func (p *Program) Clone() *Program {
	q := NewProgram()
	q.order = append([]predKey(nil), p.order...)
	for k, cs := range p.clauses {
		q.clauses[k] = append([]Clause(nil), cs...)
	}
	return q
}
