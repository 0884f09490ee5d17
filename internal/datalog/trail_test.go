package datalog

import (
	"strings"
	"testing"
)

func TestSubstMarkUndo(t *testing.T) {
	s := NewSubst()
	s.Bind(NewVar("A"), Atom("a"))
	mark := s.Mark()
	s.Bind(NewVar("B"), Atom("b"))
	s.Bind(NewVar("C"), Atom("c"))
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	s.Undo(mark)
	if s.Len() != 1 {
		t.Fatalf("after Undo: Len = %d, want 1", s.Len())
	}
	if _, ok := s.Lookup("B"); ok {
		t.Error("B survived Undo")
	}
	if got, ok := s.Lookup("A"); !ok || !Equal(got, Atom("a")) {
		t.Error("A lost by Undo of a later checkpoint")
	}
}

func TestSubstUndoRestoresOverwrite(t *testing.T) {
	s := NewSubst()
	s.Bind(NewVar("X"), Atom("old"))
	mark := s.Mark()
	s.Bind(NewVar("X"), Atom("new")) // rebinding is legal via Bind
	if got, _ := s.Lookup("X"); !Equal(got, Atom("new")) {
		t.Fatal("rebind did not take")
	}
	s.Undo(mark)
	if got, _ := s.Lookup("X"); !Equal(got, Atom("old")) {
		t.Errorf("Undo did not restore overwritten binding: X = %v", got)
	}
}

func TestUnifyFailureLeavesSubstUnchanged(t *testing.T) {
	// f(X, X) vs f(a, b): X binds to a, then a/b clash must roll X back.
	s := NewSubst()
	if Unify(Comp("f", NewVar("X"), NewVar("X")), Comp("f", Atom("a"), Atom("b")), s) {
		t.Fatal("expected failure")
	}
	if s.Len() != 0 {
		t.Errorf("failed Unify left %d bindings", s.Len())
	}
	if s.Mark() != 0 {
		t.Errorf("failed Unify left %d trail entries", s.Mark())
	}
}

func TestNestedMarkUndo(t *testing.T) {
	s := NewSubst()
	outer := s.Mark()
	if !Unify(NewVar("X"), Atom("a"), s) {
		t.Fatal("unify failed")
	}
	inner := s.Mark()
	if !Unify(NewVar("Y"), NewVar("X"), s) {
		t.Fatal("unify failed")
	}
	if got := s.Resolve(NewVar("Y")); !Equal(got, Atom("a")) {
		t.Fatalf("Y = %v, want a", got)
	}
	s.Undo(inner)
	if _, ok := s.Lookup("Y"); ok {
		t.Error("inner undo did not remove Y")
	}
	if got := s.Resolve(NewVar("X")); !Equal(got, Atom("a")) {
		t.Error("inner undo removed X")
	}
	s.Undo(outer)
	if s.Len() != 0 {
		t.Error("outer undo did not empty the store")
	}
}

func TestConstraintSetMarkUndo(t *testing.T) {
	cs := NewConstraintSet()
	s := NewSubst()
	x, y := NewVar("X"), NewVar("Y")
	cs.Add(PredNeq, x, Atom("a"), s)
	mark := cs.Mark()
	cs.Add(PredGt, y, Number(3), s)
	if cs.Len() != 2 {
		t.Fatalf("Len = %d, want 2", cs.Len())
	}
	cs.Undo(mark)
	if cs.Len() != 1 {
		t.Fatalf("after Undo: Len = %d, want 1", cs.Len())
	}
	if !strings.Contains(cs.String(), PredNeq) {
		t.Errorf("wrong constraint survived: %s", cs)
	}
	// The rolled-back slot must be reusable.
	if !cs.Add(PredLt, y, Number(9), s) || cs.Len() != 2 {
		t.Error("Add after Undo failed")
	}
}

// mustSolve runs the solver and fails the test on error.
func mustSolve(t *testing.T, sv *Solver, goals ...Term) []Solution {
	t.Helper()
	sols, err := sv.Solve(goals...)
	if err != nil {
		t.Fatal(err)
	}
	return sols
}

// TestFirstArgIndexPreservesOrder checks that a goal with a constant
// first argument meets exactly the clauses that unify with it, in source
// order.
func TestFirstArgIndexPreservesOrder(t *testing.T) {
	prog := NewProgram()
	prog.Add(
		Fact("p", Atom("a"), Number(1)),
		Fact("p", Atom("b"), Number(2)),
		Fact("p", NewVar("Any"), Number(3)), // fallback: matches every first arg
		Fact("p", Atom("a"), Number(4)),
		Fact("p", Str("a"), Number(5)), // Str("a") must not collide with Atom("a")
	)
	sv := &Solver{Program: prog}
	sols := mustSolve(t, sv, Comp("p", Atom("a"), NewVar("V")))
	var got []string
	for _, s := range sols {
		got = append(got, s.Bindings["V"].String())
	}
	want := []string{"1", "3", "4"}
	if len(got) != len(want) {
		t.Fatalf("solutions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("solutions = %v, want %v (source order)", got, want)
		}
	}

	// A variable goal argument matches every clause.
	if n := len(mustSolve(t, sv, Comp("p", NewVar("X"), NewVar("V")))); n != 5 {
		t.Errorf("open query found %d solutions, want 5", n)
	}
	// A Str goal matches the Str clause and the variable one.
	if n := len(mustSolve(t, sv, Comp("p", Str("a"), NewVar("V")))); n != 2 {
		t.Errorf("Str query found %d solutions, want 2", n)
	}
}

// TestSharedProgramConcurrentSolvers locks in that solving is read-only
// on the Program: the server hands one cached Program to a solver per
// request, so solving must never write to it (run with -race).
func TestSharedProgramConcurrentSolvers(t *testing.T) {
	prog := NewProgram()
	for i := 0; i < 50; i++ {
		prog.Add(Fact("p", Number(i), Number(i+1)))
	}
	prog.Add(MustParseProgram("j(X, Z) :- p(X, Y), p(Y, Z).").Clauses("j", 2)...)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			sv := &Solver{Program: prog}
			sols, err := sv.Solve(MustParseTerm("j(3, Z)"))
			if err == nil && len(sols) != 1 {
				err = &clauseCountErr{n: len(sols)}
			}
			done <- err
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type clauseCountErr struct{ n int }

func (e *clauseCountErr) Error() string { return "unexpected solution count" }

func TestFirstArgIndexInvalidatedByAdd(t *testing.T) {
	prog := NewProgram()
	prog.Add(Fact("p", Atom("a"), Number(1)), Fact("p", Atom("b"), Number(2)))
	sv := &Solver{Program: prog}
	if n := len(mustSolve(t, sv, Comp("p", Atom("a"), NewVar("V")))); n != 1 {
		t.Fatalf("pre-Add solutions = %d, want 1", n)
	}
	prog.Add(Fact("p", Atom("a"), Number(9)))
	if n := len(mustSolve(t, sv, Comp("p", Atom("a"), NewVar("V")))); n != 2 {
		t.Errorf("post-Add solutions = %d, want 2 (a clause added after a solve is not seen)", n)
	}
}

func TestFirstArgIndexNumberBuckets(t *testing.T) {
	prog := NewProgram()
	prog.Add(
		Fact("n", Number(1), Atom("one")),
		Fact("n", Number(2), Atom("two")),
		Fact("n", Number(-0.0), Atom("zero")),
	)
	sv := &Solver{Program: prog}
	if n := len(mustSolve(t, sv, Comp("n", Number(2), NewVar("V")))); n != 1 {
		t.Errorf("Number(2) query: %d solutions, want 1", n)
	}
	// -0 and +0 unify (float equality).
	if n := len(mustSolve(t, sv, Comp("n", Number(0), NewVar("V")))); n != 1 {
		t.Errorf("Number(0) query against -0 fact: %d solutions, want 1", n)
	}
}

// TestSolverDeterminismUnderBacktracking locks in that the trail-based
// solver enumerates the same solutions, in the same order, as the
// specification (clause source order, depth-first).
func TestSolverDeterminismUnderBacktracking(t *testing.T) {
	prog := MustParseProgram(`
		edge(a, b). edge(b, c). edge(a, d). edge(d, c).
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
	`)
	sv := &Solver{Program: prog}
	sols := mustSolve(t, sv, MustParseTerm("path(a, C)"))
	var got []string
	for _, s := range sols {
		got = append(got, s.Bindings["C"].String())
	}
	want := []string{"b", "d", "c", "c"}
	if len(got) != len(want) {
		t.Fatalf("paths = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("paths = %v, want %v", got, want)
		}
	}
}

// TestNotSubSolverAvoidsVariableCapture regresses a variable-capture bug:
// the not/1 sub-solver used to restart the fresh-variable counter at zero,
// so its renamed clause variables collided with the parent's free _G
// variables in the negated goal, tripping the occurs check and making
// provable goals look unprovable.
func TestNotSubSolverAvoidsVariableCapture(t *testing.T) {
	prog := MustParseProgram(`
		p(W).
		r :- not(p(f(X, Y))).
	`)
	sv := &Solver{Program: prog}
	sols, err := sv.Solve(Atom("r"))
	if err != nil {
		t.Fatal(err)
	}
	// p(f(X, Y)) is provable (W unifies with f(X, Y)), so not(...) must
	// fail and r must have no solutions.
	if len(sols) != 0 {
		t.Errorf("r has %d solutions, want 0 (sub-solver captured the goal's variables)", len(sols))
	}
}

// TestAbducedDedupDistinguishesRenderAliases checks that the abduced-atom
// dedup key separates structurally different atoms whose String() renders
// coincide (Number(-1) vs neg(1)).
func TestAbducedDedupDistinguishesRenderAliases(t *testing.T) {
	prog := NewProgram()
	prog.Add(Clause{Head: Comp("q"), Body: []Term{
		Comp("p", Number(-1)),
		Comp("p", Comp(FuncNeg, Number(1))),
	}})
	sv := &Solver{
		Program:            prog,
		CollectConstraints: true,
		Abducible:          func(name string, arity int) bool { return name == "p" },
	}
	sols, err := sv.Solve(Comp("q"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 {
		t.Fatalf("sols = %d, want 1", len(sols))
	}
	if n := len(sols[0].Abduced); n != 2 {
		t.Errorf("abduced %d atoms, want 2: p(-1) and p(neg(1)) render alike but differ structurally (%v)", n, sols[0].Abduced)
	}
}

// Allocation-regression tests: the trail refactor removed every per-step
// map copy from the solver's inner loop. These fail loudly if a future
// change reintroduces one (a Subst clone costs O(bindings) allocations per
// resolution step, so budgets below would be blown immediately).

func TestUnifyGroundTermsAllocFree(t *testing.T) {
	l := MustParseTerm(`f(b, g(c, h(d, a)), 3, "s")`)
	r := MustParseTerm(`f(b, g(c, h(d, a)), 3, "s")`)
	s := NewSubst()
	allocs := testing.AllocsPerRun(200, func() {
		if !Unify(l, r, s) {
			t.Fatal("unify failed")
		}
	})
	if allocs > 0 {
		t.Errorf("ground Unify allocates %.1f objects/op, want 0", allocs)
	}
}

func TestCaseSplitAllocBudget(t *testing.T) {
	// A 3-clause case split in abductive mode — the shape of mediation.
	prog := MustParseProgram(`
		sf(Cur, 1000) :- Cur = 'JPY'.
		sf(Cur, 100) :- Cur = 'KRW'.
		sf(Cur, 1) :- Cur \= 'JPY', Cur \= 'KRW'.
		q(V) :- r(N, Cur), sf(Cur, V).
	`)
	goal := MustParseTerm("q(V)")
	run := func() {
		sv := &Solver{Program: prog, CollectConstraints: true,
			Abducible: func(name string, arity int) bool { return name == "r" }}
		sols, err := sv.Solve(goal)
		if err != nil || len(sols) != 3 {
			t.Fatalf("sols=%d err=%v", len(sols), err)
		}
	}
	run() // warm parse caches etc. outside the measurement
	allocs := testing.AllocsPerRun(100, run)
	// Measured 94 objects/op with the trail-based solver; the clone-based
	// solver needed several hundred. The budget leaves headroom for noise
	// while still catching any reintroduced per-step copying.
	const budget = 160
	if allocs > budget {
		t.Errorf("3-clause abductive case split allocates %.0f objects/op, budget %d", allocs, budget)
	}
}
