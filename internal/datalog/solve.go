package datalog

import (
	"errors"
	"fmt"
)

// Solution is one successful derivation of a query.
type Solution struct {
	// Bindings maps each variable of the original query to its resolved
	// value (possibly a symbolic arithmetic expression).
	Bindings map[string]Term
	// Abduced holds the abducible atoms assumed by this derivation, in
	// first-assumption order with duplicates removed. For the mediator
	// these are the source-relation atoms that become the FROM clause.
	Abduced []Compound
	// Constraints holds the residual (non-ground) comparison constraints,
	// normalized and deterministically ordered. For the mediator these
	// become WHERE predicates.
	Constraints []Compound
	// Trace lists the clause applications of the derivation in order.
	// The mediator turns it into human-readable branch explanations.
	Trace []TraceStep
}

// TraceStep records one clause application: the predicate resolved and
// the index of the clause used (in Program source order).
type TraceStep struct {
	Pred   string
	Arity  int
	Clause int
}

// Key renders the step's predicate as "name/arity".
func (t TraceStep) Key() string { return fmt.Sprintf("%s/%d", t.Pred, t.Arity) }

// Solver runs SLD resolution with optional abduction over a Program.
//
// A Solver is single-use-at-a-time: Solve mutates internal scratch state
// (variable counter, trace stack), so concurrent Solve calls on one Solver
// are not safe. Create one Solver per goroutine.
type Solver struct {
	// Program is the clause store consulted for resolution.
	Program *Program
	// Abducible reports whether a predicate may be assumed rather than
	// proven. If an abducible predicate also has clauses, clause
	// resolution is explored first and abduction is tried as one more
	// alternative.
	Abducible func(name string, arity int) bool
	// CollectConstraints makes non-ground comparisons succeed by recording
	// them in the constraint store instead of failing. This is the
	// abductive-mediation mode. When false, non-ground comparisons are an
	// error (classic datalog evaluation over ground facts).
	CollectConstraints bool
	// MaxDepth bounds the resolution depth per derivation (a safety valve
	// against runaway recursion; compiled mediation programs are
	// non-recursive). Zero means DefaultMaxDepth.
	MaxDepth int
	// MaxSolutions stops the search after this many solutions. Zero means
	// unlimited.
	MaxSolutions int
	// Denials are integrity constraints in the abductive-logic-programming
	// sense: clause bodies that must NOT be provable from the program plus
	// the abduced atoms. A candidate solution is discarded when a denial
	// body is definitely provable (a derivation with no residual
	// constraints and no further abduction); possibly-provable bodies
	// (residue left) do not prune — a sound approximation. Heads are
	// ignored by convention (write them as ic :- body).
	Denials []Clause

	varCounter int

	// traceBuf is the live clause-application stack of the current
	// derivation: steps are pushed entering a clause and popped on
	// backtrack; emit copies it into the Solution. This replaces the
	// per-step append-copy of the old trace threading.
	traceBuf []TraceStep
}

// DefaultMaxDepth is the resolution depth bound used when Solver.MaxDepth
// is zero.
const DefaultMaxDepth = 4096

// ErrDepthExceeded is returned when a derivation exceeds the depth bound.
var ErrDepthExceeded = errors.New("datalog: resolution depth exceeded")

var errStopSearch = errors.New("datalog: solution limit reached")

// emitFn receives each successful derivation's live state. Implementations
// must copy anything they keep: s, store, and abduced are rolled back as
// the search backtracks.
type emitFn func(s *Subst, store *ConstraintSet, abduced []Compound) error

// Solve proves the conjunction of goals and returns every solution, in
// clause-order-deterministic sequence.
func (sv *Solver) Solve(goals ...Term) ([]Solution, error) {
	if sv.Program == nil {
		sv.Program = NewProgram()
	}
	maxDepth := sv.MaxDepth
	if maxDepth == 0 {
		maxDepth = DefaultMaxDepth
	}
	sv.traceBuf = sv.traceBuf[:0]
	// Query variables, first-occurrence order, deduped by linear scan
	// (queries have a handful of variables; a map costs more to build).
	var queryVars []string
	for _, g := range goals {
		queryVars = varNames(g, queryVars)
	}
	var sols []Solution
	emit := func(s *Subst, store *ConstraintSet, abduced []Compound) error {
		residual, ok := store.Normalize(s)
		if !ok {
			return nil // inconsistent branch: not a solution
		}
		sol := Solution{Bindings: make(map[string]Term, len(queryVars))}
		for _, name := range queryVars {
			sol.Bindings[name] = SimplifyExpr(Variable{Name: name}, s)
		}
		switch {
		case len(abduced) == 1:
			sol.Abduced = []Compound{s.ResolveCompound(abduced[0])}
		case len(abduced) > 1:
			// Dedup resolved atoms by canonical key: one map lookup per
			// atom instead of a pairwise Equal scan. canonKey is injective
			// on term structure (unlike String(), which renders e.g.
			// Number(-1) and neg(1) identically).
			seen := make(map[string]struct{}, len(abduced))
			var buf []byte
			for _, a := range abduced {
				r := s.ResolveCompound(a)
				buf = canonKey(buf[:0], r)
				if _, dup := seen[string(buf)]; dup {
					continue
				}
				seen[string(buf)] = struct{}{}
				sol.Abduced = append(sol.Abduced, r)
			}
		}
		sol.Constraints = residual
		sol.Trace = append([]TraceStep(nil), sv.traceBuf...)
		if len(sv.Denials) > 0 {
			violated, err := sv.violatesDenial(sol)
			if err != nil {
				return err
			}
			if violated {
				return nil
			}
		}
		if sols == nil {
			sols = make([]Solution, 0, 4)
		}
		sols = append(sols, sol)
		if sv.MaxSolutions > 0 && len(sols) >= sv.MaxSolutions {
			return errStopSearch
		}
		return nil
	}
	err := sv.solve(goals, NewSubst(), NewConstraintSet(), nil, maxDepth, emit)
	if errors.Is(err, errStopSearch) {
		err = nil
	}
	if err != nil {
		return nil, err
	}
	return sols, nil
}

// violatesDenial reports whether any denial body is definitely provable
// from the program extended with the solution's abduced atoms as facts.
// Residual eq(Var, ground) constraints are applied as bindings first: an
// equality the WHERE clause demands holds of every answer tuple, so the
// hypothesized facts may assume it.
func (sv *Solver) violatesDenial(sol Solution) (bool, error) {
	eqs := NewSubst()
	for _, c := range sol.Constraints {
		if c.Functor == PredEq {
			if v, ok := c.Args[0].(Variable); ok && IsGround(c.Args[1]) {
				eqs.Bind(v, c.Args[1])
			} else if v, ok := c.Args[1].(Variable); ok && IsGround(c.Args[0]) {
				eqs.Bind(v, c.Args[0])
			}
		}
	}
	// Variables still free in the hypothesized facts stand for
	// arbitrary-but-specific data values; skolemize them so a denial
	// cannot fire by merely unifying them with a forbidden constant.
	skolems := NewSubst()
	skolemize := func(t Term) Term {
		for _, v := range Vars(eqs.Resolve(t), nil) {
			if _, done := skolems.Lookup(v.Name); !done {
				skolems.Bind(v, Comp("$sk", Str(v.Name)))
			}
		}
		return skolems.Resolve(eqs.Resolve(t))
	}
	ext := sv.Program.Clone()
	for _, a := range sol.Abduced {
		ext.Add(Clause{Head: skolemize(a).(Compound)})
	}
	for _, denial := range sv.Denials {
		ren := renamer{counter: &sv.varCounter}
		goals := make([]Term, len(denial.Body))
		for i, g := range denial.Body {
			goals[i] = ren.rename(g)
		}
		sub := &Solver{
			Program:            ext,
			CollectConstraints: true, // undecidable comparisons become residue, not errors
			MaxDepth:           sv.MaxDepth,
			varCounter:         sv.varCounter, // avoid capture of the goal's free _G variables
		}
		proofs, err := sub.Solve(goals...)
		if err != nil {
			return false, fmt.Errorf("datalog: checking integrity constraint %s: %w", denial.String(), err)
		}
		for _, p := range proofs {
			if len(p.Constraints) == 0 {
				return true, nil // definitely provable: violated
			}
		}
	}
	return false, nil
}

// solve is the recursive SLD step. It explores clause alternatives in
// order. Instead of cloning the substitution and constraint store at each
// choice point, it checkpoints both (Mark), lets the trial mutate them
// destructively, and rolls back (Undo) before the next alternative — the
// WAM trail discipline. Invariant: solve returns with s and store exactly
// as it received them, on every path including errors.
func (sv *Solver) solve(goals []Term, s *Subst, store *ConstraintSet, abduced []Compound, depth int, emit emitFn) error {
	if len(goals) == 0 {
		return emit(s, store, abduced)
	}
	if depth <= 0 {
		return ErrDepthExceeded
	}
	goal := s.Walk(goals[0])
	rest := goals[1:]

	var name string
	var args []Term
	switch g := goal.(type) {
	case Atom:
		name, args = string(g), nil
	case Compound:
		name, args = g.Functor, g.Args
	case Variable:
		return fmt.Errorf("datalog: unbound goal %s", g.Name)
	default:
		return fmt.Errorf("datalog: goal %s is not callable", goal.String())
	}

	if handled, err := sv.builtin(name, args, rest, s, store, abduced, depth, emit); handled {
		return err
	}

	arity := len(args)
	var goalTerm Term // the goal re-boxed as a Compound, built on first trial
	for ci, cl := range sv.Program.Clauses(name, arity) {
		if goalTerm == nil {
			goalTerm = Compound{Functor: name, Args: args} // box once, not per trial
		}
		mark, cmark := s.Mark(), store.Mark()
		ren := renamer{counter: &sv.varCounter}
		head := ren.rename(cl.Head)
		if !Unify(goalTerm, head, s) {
			continue // Unify rolled its bindings back
		}
		body := rest // a fact adds no goals; solve never writes a goal slice
		if len(cl.Body) > 0 {
			body = make([]Term, 0, len(cl.Body)+len(rest))
			for _, b := range cl.Body {
				body = append(body, ren.rename(b))
			}
			body = append(body, rest...)
		}
		sv.traceBuf = append(sv.traceBuf, TraceStep{Pred: name, Arity: arity, Clause: ci})
		err := sv.solve(body, s, store, abduced, depth-1, emit)
		sv.traceBuf = sv.traceBuf[:len(sv.traceBuf)-1]
		s.Undo(mark)
		store.Undo(cmark)
		if err != nil {
			return err
		}
	}

	if sv.Abducible != nil && sv.Abducible(name, arity) {
		// Depth-first reuse makes the append safe even when it writes into
		// shared backing: sibling branches overwrite slots only after the
		// earlier branch's solutions were copied out by emit.
		atom := Compound{Functor: name, Args: args}
		return sv.solve(rest, s, store, append(abduced, atom), depth-1, emit)
	}
	// Unknown predicate: fail silently, exactly like an empty relation.
	return nil
}

// builtin dispatches control and comparison builtins. It reports whether
// the goal was handled.
func (sv *Solver) builtin(name string, args []Term, rest []Term, s *Subst, store *ConstraintSet, abduced []Compound, depth int, emit emitFn) (bool, error) {
	switch {
	case name == "true" && len(args) == 0:
		return true, sv.solve(rest, s, store, abduced, depth-1, emit)
	case name == "fail" && len(args) == 0:
		return true, nil
	case name == "=" && len(args) == 2:
		mark := s.Mark()
		if !Unify(args[0], args[1], s) {
			return true, nil
		}
		err := sv.solve(rest, s, store, abduced, depth-1, emit)
		s.Undo(mark)
		return true, err
	case name == "is" && len(args) == 2:
		v, err := Eval(args[1], s)
		var result Term
		switch {
		case err == nil:
			result = Number(v)
		case errors.Is(err, ErrNotGround) && sv.CollectConstraints:
			// Keep the arithmetic symbolic: bind the result variable to
			// the (simplified) expression itself.
			result = SimplifyExpr(args[1], s)
		default:
			if errors.Is(err, ErrNotGround) {
				return true, fmt.Errorf("datalog: `is` with unbound operand: %s", s.Resolve(args[1]))
			}
			return true, err
		}
		mark := s.Mark()
		if !Unify(args[0], result, s) {
			return true, nil
		}
		serr := sv.solve(rest, s, store, abduced, depth-1, emit)
		s.Undo(mark)
		return true, serr
	case name == "not" && len(args) == 1:
		// The sub-solver starts its fresh-variable counter at the parent's
		// height: the resolved goal can carry the parent's free _G
		// variables, and a counter restarted at zero would rename clause
		// variables into collision with them (spurious occurs-check
		// failures, wrong negation results).
		sub := &Solver{Program: sv.Program, Abducible: nil, CollectConstraints: false, MaxDepth: depth - 1, MaxSolutions: 1, varCounter: sv.varCounter}
		sols, err := sub.Solve(s.Resolve(args[0]))
		if err != nil {
			return true, err
		}
		if len(sols) > 0 {
			return true, nil
		}
		return true, sv.solve(rest, s, store, abduced, depth-1, emit)
	}

	if pred, ok := comparePred(name); ok && len(args) == 2 {
		return true, sv.compare(pred, args[0], args[1], rest, s, store, abduced, depth, emit)
	}
	if IsConstraintPred(name) && len(args) == 2 {
		return true, sv.compare(name, args[0], args[1], rest, s, store, abduced, depth, emit)
	}
	return false, nil
}

// comparePred maps surface comparison operators to constraint predicates.
func comparePred(name string) (string, bool) {
	switch name {
	case "\\=":
		return PredNeq, true
	case "<":
		return PredLt, true
	case ">":
		return PredGt, true
	case "=<", "<=":
		return PredLe, true
	case ">=":
		return PredGe, true
	}
	return "", false
}

// compare evaluates a comparison goal. Decidable comparisons are decided;
// in constraint-collection mode undecidable ones are stored, otherwise they
// are an error (unbound comparison in ground evaluation is a program bug).
func (sv *Solver) compare(pred string, a, b Term, rest []Term, s *Subst, store *ConstraintSet, abduced []Compound, depth int, emit emitFn) error {
	ra, rb := SimplifyExpr(a, s), SimplifyExpr(b, s)
	switch decideGround(pred, ra, rb) {
	case decTrue:
		return sv.solve(rest, s, store, abduced, depth-1, emit)
	case decFalse:
		return nil
	}
	if !sv.CollectConstraints {
		return fmt.Errorf("datalog: comparison %s(%s, %s) over non-ground terms in ground evaluation mode", pred, ra, rb)
	}
	cmark := store.Mark()
	if !store.Add(pred, ra, rb, s) {
		return nil // Add leaves the store untouched on failure
	}
	err := sv.solve(rest, s, store, abduced, depth-1, emit)
	store.Undo(cmark)
	return err
}
