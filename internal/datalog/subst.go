package datalog

// Subst is a substitution: a binding store mapping variable names to terms.
// Bindings may chain (X -> Y, Y -> 3); Walk and Resolve follow chains.
//
// The store is destructive with an undo trail, in the style of the WAM:
// every Bind pushes a record on the trail, Mark snapshots the trail height,
// and Undo(mark) pops bindings back to the snapshot. The solver uses marks
// at choice points instead of cloning the map, so a resolution step costs
// O(bindings made on that step) rather than O(all bindings so far).
type Subst struct {
	m     map[string]Term
	trail []trailEntry
}

// trailEntry records one Bind so Undo can reverse it. prev/hadPrev guard
// the (never-exercised by Unify, but legal via Bind) rebinding case.
type trailEntry struct {
	name    string
	prev    Term
	hadPrev bool
}

// NewSubst returns an empty substitution. The underlying map is allocated
// lazily on the first Bind, so ground-only uses (arithmetic folding,
// constraint deciding) cost one small struct allocation and no map.
func NewSubst() *Subst { return &Subst{} }

// Len returns the number of live bindings.
func (s *Subst) Len() int {
	if s == nil {
		return 0
	}
	return len(s.m)
}

// Lookup returns the direct binding of the named variable, if any. It does
// not follow chains; use Walk or Resolve for dereferencing.
func (s *Subst) Lookup(name string) (Term, bool) {
	if s == nil {
		return nil, false
	}
	t, ok := s.m[name]
	return t, ok
}

// Mark returns a checkpoint of the current trail height. Pass it to Undo
// to roll every later binding back.
func (s *Subst) Mark() int { return len(s.trail) }

// Undo rolls the store back to a checkpoint previously returned by Mark.
// Bindings made since are removed (or restored, if they overwrote).
func (s *Subst) Undo(mark int) {
	for i := len(s.trail) - 1; i >= mark; i-- {
		e := s.trail[i]
		if e.hadPrev {
			s.m[e.name] = e.prev
		} else {
			delete(s.m, e.name)
		}
		s.trail[i] = trailEntry{} // drop term references eagerly
	}
	s.trail = s.trail[:mark]
}

// Walk dereferences t one level at a time until it is not a bound variable.
// Compound arguments are not resolved; use Resolve for a deep rewrite.
// A nil *Subst is a valid empty substitution for read-only use.
func (s *Subst) Walk(t Term) Term {
	if s == nil {
		return t
	}
	for {
		v, ok := t.(Variable)
		if !ok {
			return t
		}
		b, ok := s.m[v.Name]
		if !ok {
			return t
		}
		t = b
	}
}

// Resolve rewrites t, replacing every bound variable with its binding,
// recursively. Unbound variables remain.
func (s *Subst) Resolve(t Term) Term {
	t = s.Walk(t)
	c, ok := t.(Compound)
	if !ok {
		return t
	}
	return s.ResolveCompound(c)
}

// ResolveCompound is Resolve specialized to a Compound root: it returns
// the concrete type, sparing callers (and the solver's emit path) an
// interface boxing per call.
func (s *Subst) ResolveCompound(c Compound) Compound {
	args := make([]Term, len(c.Args))
	for i, a := range c.Args {
		args[i] = s.Resolve(a)
	}
	return Compound{Functor: c.Functor, Args: args}
}

// Bind records v -> t on the trail. It does not check for cycles; Unify
// performs the occurs check when enabled.
func (s *Subst) Bind(v Variable, t Term) {
	if s.m == nil {
		s.m = make(map[string]Term, 8)
		s.trail = make([]trailEntry, 0, 16)
	}
	prev, hadPrev := s.m[v.Name]
	s.trail = append(s.trail, trailEntry{name: v.Name, prev: prev, hadPrev: hadPrev})
	s.m[v.Name] = t
}

// Unify attempts to unify a and b under s, mutating s in place. On failure
// it rolls its own bindings back, so s is observably unchanged (the trail
// makes this cheap; callers no longer need to clone defensively). The
// occurs check is always on: mediation rewrites terms into SQL, where
// cyclic terms would be fatal, and the clause bodies are small enough that
// the cost is negligible.
func Unify(a, b Term, s *Subst) bool {
	mark := s.Mark()
	if unify(a, b, s) {
		return true
	}
	s.Undo(mark)
	return false
}

func unify(a, b Term, s *Subst) bool {
	a, b = s.Walk(a), s.Walk(b)
	if av, ok := a.(Variable); ok {
		if bv, ok := b.(Variable); ok && av.Name == bv.Name {
			return true
		}
		if occurs(av, b, s) {
			return false
		}
		s.Bind(av, b)
		return true
	}
	if bv, ok := b.(Variable); ok {
		if occurs(bv, a, s) {
			return false
		}
		s.Bind(bv, a)
		return true
	}
	switch a := a.(type) {
	case Atom:
		b, ok := b.(Atom)
		return ok && a == b
	case Number:
		b, ok := b.(Number)
		return ok && a == b
	case Str:
		b, ok := b.(Str)
		return ok && a == b
	case Compound:
		b, ok := b.(Compound)
		if !ok || a.Functor != b.Functor || len(a.Args) != len(b.Args) {
			return false
		}
		for i := range a.Args {
			if !unify(a.Args[i], b.Args[i], s) {
				return false
			}
		}
		return true
	}
	return false
}

func occurs(v Variable, t Term, s *Subst) bool {
	t = s.Walk(t)
	switch t := t.(type) {
	case Variable:
		return t.Name == v.Name
	case Compound:
		for _, a := range t.Args {
			if occurs(v, a, s) {
				return true
			}
		}
	}
	return false
}
