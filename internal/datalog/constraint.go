package datalog

import (
	"sort"
	"strings"
)

// Constraint predicates. During abductive mediation, comparisons over data
// values that are unknown at mediation time are not evaluated; they are
// recorded in a constraint store and later rendered into the WHERE clauses
// of the mediated SQL.
const (
	PredEq  = "eq"  // =
	PredNeq = "neq" // \=  (SQL <>)
	PredLt  = "lt"  // <
	PredLe  = "le"  // =<
	PredGt  = "gt"  // >
	PredGe  = "ge"  // >=
)

// IsConstraintPred reports whether name/2 is a constraint predicate.
func IsConstraintPred(name string) bool {
	switch name {
	case PredEq, PredNeq, PredLt, PredLe, PredGt, PredGe:
		return true
	}
	return false
}

// negatePred returns the complementary comparison.
func negatePred(name string) string {
	switch name {
	case PredEq:
		return PredNeq
	case PredNeq:
		return PredEq
	case PredLt:
		return PredGe
	case PredGe:
		return PredLt
	case PredGt:
		return PredLe
	case PredLe:
		return PredGt
	}
	return ""
}

// ConstraintSet is an ordered store of binary constraint atoms. The solver
// checkpoints it at choice points with Mark and rolls back with Undo, the
// same discipline as the Subst trail: constraints are only ever appended,
// so a checkpoint is just the store length.
type ConstraintSet struct {
	cs []Compound
}

// NewConstraintSet returns an empty set.
func NewConstraintSet() *ConstraintSet { return &ConstraintSet{} }

// Mark returns a checkpoint of the current store height for Undo.
func (c *ConstraintSet) Mark() int { return len(c.cs) }

// Undo rolls the store back to a checkpoint previously returned by Mark,
// discarding every constraint added since.
func (c *ConstraintSet) Undo(mark int) {
	tail := c.cs[mark:]
	for i := range tail {
		tail[i] = Compound{} // drop term references eagerly
	}
	c.cs = c.cs[:mark]
}

// Len returns the number of stored constraints.
func (c *ConstraintSet) Len() int { return len(c.cs) }

// All returns the stored constraints (shared slice; treat as read-only).
func (c *ConstraintSet) All() []Compound { return c.cs }

// Add records a constraint after resolving it under s. Ground constraints
// are decided immediately: a true one is dropped, a false one makes Add
// return false (the branch is inconsistent). Non-ground constraints are
// stored after a quick contradiction check against the existing store.
func (c *ConstraintSet) Add(pred string, a, b Term, s *Subst) bool {
	a, b = s.Resolve(a), s.Resolve(b)
	switch decideGround(pred, a, b) {
	case decTrue:
		return true
	case decFalse:
		return false
	}
	nc := Comp(pred, a, b)
	for _, old := range c.cs {
		if Equal(old, nc) {
			return true // duplicate
		}
	}
	if contradictsStore(nc, c.cs) {
		return false
	}
	c.cs = append(c.cs, nc)
	return true
}

type decision int

const (
	decUnknown decision = iota
	decTrue
	decFalse
)

// decideGround decides pred(a,b) when both sides are ground (after
// arithmetic folding); returns decUnknown otherwise.
func decideGround(pred string, a, b Term) decision {
	// Only attempt numeric evaluation on terms that can possibly be
	// numeric: Eval on an Atom or Str builds a descriptive error, and this
	// runs once per comparison goal on the solver's hot path.
	if maybeNumeric(a) && maybeNumeric(b) {
		av, aerr := Eval(a, nil)
		bv, berr := Eval(b, nil)
		if aerr == nil && berr == nil {
			return boolDec(compareFloats(pred, av, bv))
		}
	}
	// Non-numeric ground comparison: only (in)equality is decidable.
	if IsGround(a) && IsGround(b) {
		switch pred {
		case PredEq:
			return boolDec(Equal(a, b))
		case PredNeq:
			return boolDec(!Equal(a, b))
		default:
			// Ordered comparison between ground non-numeric terms: use
			// string order for Str/Atom pairs (SQL semantics), undecided
			// otherwise.
			as, aok := groundString(a)
			bs, bok := groundString(b)
			if aok && bok {
				return boolDec(compareStrings(pred, as, bs))
			}
		}
	}
	return decUnknown
}

func groundString(t Term) (string, bool) {
	switch t := t.(type) {
	case Str:
		return string(t), true
	case Atom:
		return string(t), true
	}
	return "", false
}

func boolDec(b bool) decision {
	if b {
		return decTrue
	}
	return decFalse
}

func compareFloats(pred string, a, b float64) bool {
	switch pred {
	case PredEq:
		return a == b
	case PredNeq:
		return a != b
	case PredLt:
		return a < b
	case PredLe:
		return a <= b
	case PredGt:
		return a > b
	case PredGe:
		return a >= b
	}
	return false
}

func compareStrings(pred string, a, b string) bool {
	switch pred {
	case PredEq:
		return a == b
	case PredNeq:
		return a != b
	case PredLt:
		return a < b
	case PredLe:
		return a <= b
	case PredGt:
		return a > b
	case PredGe:
		return a >= b
	}
	return false
}

// contradictsStore detects direct contradictions between nc and the stored
// constraints: a constraint and its exact complement over the same
// arguments, or eq against a distinct ground value when an eq to another
// ground value exists.
func contradictsStore(nc Compound, store []Compound) bool {
	neg := negatePred(nc.Functor)
	for _, old := range store {
		if old.Functor == neg && Equal(old.Args[0], nc.Args[0]) && Equal(old.Args[1], nc.Args[1]) {
			return true
		}
		// eq(X, c1) with eq(X, c2), c1 != c2 ground.
		if nc.Functor == PredEq && old.Functor == PredEq &&
			Equal(old.Args[0], nc.Args[0]) &&
			IsGround(old.Args[1]) && IsGround(nc.Args[1]) &&
			!Equal(old.Args[1], nc.Args[1]) {
			return true
		}
	}
	return false
}

// Normalize re-resolves every stored constraint under s, re-decides the
// ground ones, deduplicates, and checks consistency. It returns the
// residual constraints in deterministic order, or ok=false if the set is
// inconsistent. The solver calls it whenever a solution is emitted, so a
// branch whose constraints became ground-false after later bindings is
// pruned even though Add accepted it earlier. Entailed (ground-true)
// constraints are dropped: simplification keeps the paper's USD branch
// free of `currency <> 'JPY'`.
func (c *ConstraintSet) Normalize(s *Subst) (residual []Compound, ok bool) {
	if len(c.cs) == 0 {
		return nil, true
	}
	fresh := NewConstraintSet()
	for _, con := range c.cs {
		a := SimplifyExpr(con.Args[0], s)
		b := SimplifyExpr(con.Args[1], s)
		if !fresh.Add(con.Functor, a, b, s) {
			return nil, false
		}
	}
	out := fresh.cs
	if len(out) < 2 {
		return out, true
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Functor != out[j].Functor {
			return out[i].Functor < out[j].Functor
		}
		return Compare(Compound(out[i]), Compound(out[j])) < 0
	})
	return out, true
}

// NormalizeConstraints is Normalize over a residue that left its store:
// the mediator re-checks a solution's constraints with it after putting
// values the solver never saw into them. cs is not modified.
func NormalizeConstraints(cs []Compound) ([]Compound, bool) {
	return (&ConstraintSet{cs: cs}).Normalize(nil)
}

// String renders the store for diagnostics.
func (c *ConstraintSet) String() string {
	parts := make([]string, len(c.cs))
	for i, con := range c.cs {
		parts[i] = con.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
