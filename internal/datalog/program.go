package datalog

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

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

// Rule builds a clause with the given head and body.
func Rule(head Compound, body ...Term) Clause {
	return Clause{Head: head, Body: body}
}

// predKey identifies a predicate by name and arity.
type predKey struct {
	name  string
	arity int
}

func (k predKey) String() string { return fmt.Sprintf("%s/%d", k.name, k.arity) }

// Program is an ordered clause store indexed by predicate name/arity.
// Clause order within a predicate is source order (Prolog-style), which
// gives deterministic case enumeration during mediation.
//
// On top of the name/arity map, each predicate gets a first-argument
// index, maintained incrementally by Add: clauses whose head's first
// argument is an atomic constant (Atom, Number, Str) are bucketed by that
// constant, and the rest (variable or compound first argument) go to a
// fallback bucket. A goal with a ground first argument then only tries
// its own bucket plus the fallback, merged back into source order —
// determinism is unchanged, only clauses that provably cannot unify are
// skipped. Because the index is built at Add time, a Program is read-only
// during solving and safe to share between concurrent solvers (as long as
// no goroutine Adds concurrently), matching the pre-index guarantee.
type Program struct {
	clauses map[predKey][]Clause
	order   []predKey // registration order, for deterministic dumps
	index   map[predKey]*predIndex
}

// predIndex is the first-argument index of one predicate. Slices hold
// positions into the predicate's clause slice, ascending (source order).
type predIndex struct {
	byConst  map[string][]int // first-arg constant key -> clause positions
	fallback []int            // clauses not indexable by first argument
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{clauses: map[predKey][]Clause{}}
}

// Add appends clauses to the program and extends the first-argument index
// (clause positions only ever grow, so each bucket stays ascending).
func (p *Program) Add(cs ...Clause) {
	for _, c := range cs {
		k := predKey{c.Head.Functor, len(c.Head.Args)}
		if _, ok := p.clauses[k]; !ok {
			p.order = append(p.order, k)
		}
		p.clauses[k] = append(p.clauses[k], c)
		p.indexClause(k, len(p.clauses[k])-1, c)
	}
}

// indexClause records the clause at position ci in its predicate's
// first-argument index.
func (p *Program) indexClause(k predKey, ci int, c Clause) {
	if k.arity == 0 {
		return
	}
	idx := p.index[k]
	if idx == nil {
		if p.index == nil {
			p.index = map[predKey]*predIndex{}
		}
		idx = &predIndex{}
		p.index[k] = idx
	}
	if key, ok := indexKey(c.Head.Args[0]); ok {
		if idx.byConst == nil {
			idx.byConst = map[string][]int{}
		}
		idx.byConst[key] = append(idx.byConst[key], ci)
	} else {
		idx.fallback = append(idx.fallback, ci)
	}
}

// indexKey returns the index bucket key for an atomic constant term, or
// ok=false for variables and compounds. Type tags keep Atom("a"),
// Str("a"), and a hypothetical numeric rendering from colliding. Negative
// zero is folded into zero to match Unify's float equality.
func indexKey(t Term) (string, bool) {
	switch t := t.(type) {
	case Atom:
		return "a\x00" + string(t), true
	case Str:
		return "s\x00" + string(t), true
	case Number:
		f := float64(t)
		if f == 0 {
			f = 0 // normalize -0 to +0
		}
		return "n\x00" + strconv.FormatFloat(f, 'b', -1, 64), true
	}
	return "", false
}

// clauseIter enumerates the clauses of one predicate that can possibly
// match a goal, in source order. When the goal's first argument
// dereferences to an atomic constant, the iterator merges the matching
// constant bucket with the fallback bucket (both position-sorted);
// otherwise it scans all clauses. Value type: iteration allocates nothing.
type clauseIter struct {
	clauses []Clause
	exact   []int // positions from the constant bucket, ascending
	vars    []int // positions from the fallback bucket, ascending
	indexed bool
	pos     int // cursor for the unindexed scan
	ei, vi  int // cursors into exact and vars
}

// clausesFor builds the iterator for a goal. firstArg must already be
// dereferenced (Walk) by the caller; nil means arity 0.
func (p *Program) clausesFor(name string, arity int, firstArg Term) clauseIter {
	k := predKey{name, arity}
	cs := p.clauses[k]
	it := clauseIter{clauses: cs}
	if arity == 0 || len(cs) < 2 || firstArg == nil {
		return it
	}
	key, ok := indexKey(firstArg)
	if !ok {
		return it // variable or compound goal argument: try every clause
	}
	idx := p.index[k]
	if idx == nil {
		return it // defensive: should not happen for arity ≥ 1
	}
	it.exact = idx.byConst[key]
	it.vars = idx.fallback
	it.indexed = true
	return it
}

// next returns the position and clause of the next candidate, or ok=false
// when exhausted.
func (it *clauseIter) next() (int, Clause, bool) {
	if !it.indexed {
		if it.pos >= len(it.clauses) {
			return 0, Clause{}, false
		}
		ci := it.pos
		it.pos++
		return ci, it.clauses[ci], true
	}
	// Merge the two ascending position lists to preserve source order.
	switch {
	case it.ei < len(it.exact) && (it.vi >= len(it.vars) || it.exact[it.ei] < it.vars[it.vi]):
		ci := it.exact[it.ei]
		it.ei++
		return ci, it.clauses[ci], true
	case it.vi < len(it.vars):
		ci := it.vars[it.vi]
		it.vi++
		return ci, it.clauses[ci], true
	}
	return 0, Clause{}, false
}

// Clauses returns the clauses for the given predicate, in source order.
func (p *Program) Clauses(name string, arity int) []Clause {
	return p.clauses[predKey{name, arity}]
}

// Len returns the total number of clauses.
func (p *Program) Len() int {
	n := 0
	for _, cs := range p.clauses {
		n += len(cs)
	}
	return n
}

// Predicates lists the defined predicates as "name/arity", sorted.
func (p *Program) Predicates() []string {
	out := make([]string, 0, len(p.clauses))
	for k := range p.clauses {
		out = append(out, k.String())
	}
	sort.Strings(out)
	return out
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
// shared (terms are immutable by convention). The first-argument index is
// deep-copied — buckets must not share backing arrays, or an Add on the
// original and one on the clone would write the same slot.
func (p *Program) Clone() *Program {
	q := NewProgram()
	q.order = append([]predKey(nil), p.order...)
	for k, cs := range p.clauses {
		q.clauses[k] = append([]Clause(nil), cs...)
	}
	if p.index != nil {
		q.index = make(map[predKey]*predIndex, len(p.index))
		for k, idx := range p.index {
			ni := &predIndex{fallback: append([]int(nil), idx.fallback...)}
			if idx.byConst != nil {
				ni.byConst = make(map[string][]int, len(idx.byConst))
				for key, poss := range idx.byConst {
					ni.byConst[key] = append([]int(nil), poss...)
				}
			}
			q.index[k] = ni
		}
	}
	return q
}
