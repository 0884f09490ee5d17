package datalog

import (
	"testing"
	"testing/quick"
)

func TestUnifyBasics(t *testing.T) {
	tests := []struct {
		name string
		a, b Term
		ok   bool
	}{
		{"atom-atom-equal", Atom("a"), Atom("a"), true},
		{"atom-atom-diff", Atom("a"), Atom("b"), false},
		{"atom-str-never", Atom("a"), Str("a"), false},
		{"num-num", Number(3), Number(3), true},
		{"var-anything", NewVar("X"), Comp("f", Atom("a")), true},
		{"compound-match", Comp("f", NewVar("X"), Atom("b")), Comp("f", Atom("a"), Atom("b")), true},
		{"compound-arity", Comp("f", Atom("a")), Comp("f", Atom("a"), Atom("b")), false},
		{"compound-functor", Comp("f", Atom("a")), Comp("g", Atom("a")), false},
		{"shared-var", Comp("f", NewVar("X"), NewVar("X")), Comp("f", Atom("a"), Atom("b")), false},
		{"shared-var-ok", Comp("f", NewVar("X"), NewVar("X")), Comp("f", Atom("a"), Atom("a")), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := NewSubst()
			if got := Unify(tt.a, tt.b, s); got != tt.ok {
				t.Errorf("Unify(%s, %s) = %v, want %v", tt.a, tt.b, got, tt.ok)
			}
		})
	}
}

func TestUnifyOccursCheck(t *testing.T) {
	s := NewSubst()
	x := NewVar("X")
	if Unify(x, Comp("f", x), s) {
		t.Error("occurs check failed: X unified with f(X)")
	}
}

func TestUnifyProducesUnifier(t *testing.T) {
	s := NewSubst()
	a := Comp("f", NewVar("X"), Comp("g", NewVar("Y")))
	b := Comp("f", Atom("a"), Comp("g", Number(2)))
	if !Unify(a, b, s) {
		t.Fatal("expected unification to succeed")
	}
	if got := s.Resolve(a); !Equal(got, b) {
		t.Errorf("Resolve(a) = %s, want %s", got, b)
	}
}

func TestUnifyChains(t *testing.T) {
	s := NewSubst()
	x, y, z := NewVar("X"), NewVar("Y"), NewVar("Z")
	if !Unify(x, y, s) || !Unify(y, z, s) || !Unify(z, Number(7), s) {
		t.Fatal("chain unification failed")
	}
	for _, v := range []Variable{x, y, z} {
		if got := s.Resolve(v); !Equal(got, Number(7)) {
			t.Errorf("Resolve(%s) = %s, want 7", v, got)
		}
	}
}

// Property: a successful unifier makes both terms structurally equal after
// Resolve (soundness of MGU).
func TestUnifySoundnessProperty(t *testing.T) {
	f := func(a, b randTerm) bool {
		s := NewSubst()
		if !Unify(a.T, b.T, s) {
			return true // nothing to check
		}
		return Equal(s.Resolve(a.T), s.Resolve(b.T))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: unification is symmetric in success.
func TestUnifySymmetryProperty(t *testing.T) {
	f := func(a, b randTerm) bool {
		return Unify(a.T, b.T, NewSubst()) == Unify(b.T, a.T, NewSubst())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: unifying a term with itself always succeeds and binds nothing
// observable (idempotence).
func TestUnifySelfProperty(t *testing.T) {
	f := func(a randTerm) bool {
		s := NewSubst()
		if !Unify(a.T, a.T, s) {
			return false
		}
		return Equal(s.Resolve(a.T), s.Resolve(a.T))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
