package datalog

import (
	"strings"
	"testing"
)

func solver(t *testing.T, src string) *Solver {
	t.Helper()
	prog, err := ParseProgram(src)
	if err != nil {
		t.Fatalf("ParseProgram: %v", err)
	}
	return &Solver{Program: prog}
}

func TestSolveFacts(t *testing.T) {
	sv := solver(t, `
		parent(tom, bob).
		parent(bob, ann).
		parent(bob, pat).
	`)
	sols, err := sv.Solve(MustParseTerm("parent(bob, X)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 2 {
		t.Fatalf("got %d solutions, want 2", len(sols))
	}
	got := []string{sols[0].Bindings["X"].String(), sols[1].Bindings["X"].String()}
	if got[0] != "ann" || got[1] != "pat" {
		t.Errorf("bindings = %v, want [ann pat]", got)
	}
}

func TestSolveRulesAndJoins(t *testing.T) {
	sv := solver(t, `
		parent(tom, bob).
		parent(bob, ann).
		grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
	`)
	sols, err := sv.Solve(MustParseTerm("grandparent(G, ann)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 || sols[0].Bindings["G"].String() != "tom" {
		t.Fatalf("grandparent(G, ann) = %v, want tom", sols)
	}
}

func TestSolveRecursion(t *testing.T) {
	sv := solver(t, `
		edge(a, b). edge(b, c). edge(c, d).
		path(X, Y) :- edge(X, Y).
		path(X, Z) :- edge(X, Y), path(Y, Z).
	`)
	sols, err := sv.Solve(MustParseTerm("path(a, X)"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range sols {
		seen[s.Bindings["X"].String()] = true
	}
	for _, want := range []string{"b", "c", "d"} {
		if !seen[want] {
			t.Errorf("path(a, X) missing X=%s; got %v", want, seen)
		}
	}
}

func TestSolveArithmetic(t *testing.T) {
	sv := solver(t, `
		price(widget, 10).
		taxed(Item, T) :- price(Item, P), T is P * 1.08.
	`)
	sols, err := sv.Solve(MustParseTerm("taxed(widget, T)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 {
		t.Fatalf("got %d solutions", len(sols))
	}
	if n, ok := sols[0].Bindings["T"].(Number); !ok || float64(n) != 10.8 {
		t.Errorf("T = %s, want 10.8", sols[0].Bindings["T"])
	}
}

func TestSolveComparisonsGround(t *testing.T) {
	sv := solver(t, `
		val(a, 3). val(b, 7).
		big(X) :- val(X, V), V > 5.
	`)
	sols, err := sv.Solve(MustParseTerm("big(X)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 || sols[0].Bindings["X"].String() != "b" {
		t.Fatalf("big(X) = %v, want b", sols)
	}
}

func TestSolveNegationAsFailure(t *testing.T) {
	sv := solver(t, `
		animal(dog). animal(cat).
		barks(dog).
		quiet(X) :- animal(X), not(barks(X)).
	`)
	sols, err := sv.Solve(MustParseTerm("quiet(X)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 || sols[0].Bindings["X"].String() != "cat" {
		t.Fatalf("quiet(X) = %v, want cat", sols)
	}
}

func TestSolveUnknownPredicateFails(t *testing.T) {
	sv := solver(t, `p(a).`)
	sols, err := sv.Solve(MustParseTerm("q(X)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 0 {
		t.Errorf("unknown predicate produced %d solutions", len(sols))
	}
}

func TestSolveMaxSolutions(t *testing.T) {
	sv := solver(t, `n(1). n(2). n(3). n(4).`)
	sv.MaxSolutions = 2
	sols, err := sv.Solve(MustParseTerm("n(X)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 2 {
		t.Errorf("MaxSolutions=2 returned %d solutions", len(sols))
	}
}

func TestSolveDepthBound(t *testing.T) {
	sv := solver(t, `loop(X) :- loop(X).`)
	sv.MaxDepth = 64
	_, err := sv.Solve(MustParseTerm("loop(a)"))
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Errorf("expected depth error, got %v", err)
	}
}

func TestAbductionCollectsSourceAtoms(t *testing.T) {
	sv := solver(t, `
		ans(N, R) :- r1(N, R, C), C = 'USD'.
	`)
	sv.Abducible = func(name string, arity int) bool { return name == "r1" }
	sv.CollectConstraints = true
	sols, err := sv.Solve(MustParseTerm("ans(N, R)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 {
		t.Fatalf("got %d solutions, want 1", len(sols))
	}
	if len(sols[0].Abduced) != 1 || sols[0].Abduced[0].Functor != "r1" {
		t.Fatalf("abduced = %v", sols[0].Abduced)
	}
	// The third argument of the abduced atom must be bound to 'USD' by the
	// equality in the body.
	if got := sols[0].Abduced[0].Args[2]; !Equal(got, Atom("USD")) {
		t.Errorf("abduced currency = %s, want USD", got)
	}
}

// TestAbductionCaseSplit reproduces the shape of the paper's scale-factor
// rule: a conditional over a data value unknown at mediation time must
// produce one solution per consistent case.
func TestAbductionCaseSplit(t *testing.T) {
	sv := solver(t, `
		sf(Cur, 1000) :- Cur = 'JPY'.
		sf(Cur, 1) :- Cur \= 'JPY'.
		q(N, V2) :- r1(N, V, Cur), sf(Cur, F), V2 is V * F.
	`)
	sv.Abducible = func(name string, arity int) bool { return name == "r1" }
	sv.CollectConstraints = true
	sols, err := sv.Solve(MustParseTerm("q(N, V2)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 2 {
		t.Fatalf("got %d cases, want 2 (JPY and non-JPY):\n%v", len(sols), sols)
	}
	// Case 1: currency bound to JPY, V2 = mul(V, 1000) symbolic.
	c1 := sols[0]
	if got := c1.Abduced[0].Args[2]; !Equal(got, Atom("JPY")) {
		t.Errorf("case 1 currency = %s, want JPY", got)
	}
	if v2, ok := c1.Bindings["V2"].(Compound); !ok || v2.Functor != FuncMul {
		t.Errorf("case 1 V2 = %s, want symbolic mul", c1.Bindings["V2"])
	}
	// Case 2: residual constraint Cur \= 'JPY'; V2 simplifies to V (x*1).
	c2 := sols[1]
	if len(c2.Constraints) != 1 || c2.Constraints[0].Functor != PredNeq {
		t.Errorf("case 2 constraints = %v, want one neq", c2.Constraints)
	}
	if _, ok := c2.Bindings["V2"].(Variable); !ok {
		t.Errorf("case 2 V2 = %s, want plain variable (mul by 1 simplified)", c2.Bindings["V2"])
	}
}

// TestAbductionPrunesInconsistent checks that a branch whose constraint set
// is contradictory is discarded: here the JPY case also requires USD.
func TestAbductionPrunesInconsistent(t *testing.T) {
	sv := solver(t, `
		sf(Cur, 1000) :- Cur = 'JPY'.
		sf(Cur, 1) :- Cur \= 'JPY'.
		q(N) :- r1(N, Cur), sf(Cur, F), Cur = 'USD', F = 1000.
	`)
	sv.Abducible = func(name string, arity int) bool { return name == "r1" }
	sv.CollectConstraints = true
	sols, err := sv.Solve(MustParseTerm("q(N)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 0 {
		t.Fatalf("inconsistent branch survived: %v", sols)
	}
}

// TestConstraintEntailmentDrop: once Cur is bound to 'USD', the stored
// constraint Cur \= 'JPY' is ground-true and must vanish from the residue.
func TestConstraintEntailmentDrop(t *testing.T) {
	sv := solver(t, `
		sf(Cur, 1) :- Cur \= 'JPY'.
		q(N) :- r1(N, Cur), sf(Cur, F), Cur = 'USD'.
	`)
	sv.Abducible = func(name string, arity int) bool { return name == "r1" }
	sv.CollectConstraints = true
	sols, err := sv.Solve(MustParseTerm("q(N)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 {
		t.Fatalf("got %d solutions, want 1", len(sols))
	}
	if len(sols[0].Constraints) != 0 {
		t.Errorf("residual constraints = %v, want none (entailed by binding)", sols[0].Constraints)
	}
}

func TestSolveConjunction(t *testing.T) {
	sv := solver(t, `
		a(1). a(2).
		b(2). b(3).
	`)
	goals, err := ParseGoals("a(X), b(X)")
	if err != nil {
		t.Fatal(err)
	}
	sols, err := sv.Solve(goals...)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 || !Equal(sols[0].Bindings["X"], Number(2)) {
		t.Fatalf("a(X),b(X) = %v, want X=2", sols)
	}
}

func TestDeterministicOrder(t *testing.T) {
	src := `
		c(x, 1) :- x = x.
		r(A) :- s(A).
		s(1). s(2). s(3).
	`
	for i := 0; i < 5; i++ {
		sv := solver(t, src)
		sols, err := sv.Solve(MustParseTerm("r(A)"))
		if err != nil {
			t.Fatal(err)
		}
		for j, want := range []string{"1", "2", "3"} {
			if sols[j].Bindings["A"].String() != want {
				t.Fatalf("iteration %d: order %v not deterministic/source-ordered", i, sols)
			}
		}
	}
}
