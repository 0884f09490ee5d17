package datalog

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTermString(t *testing.T) {
	tests := []struct {
		term Term
		want string
	}{
		{NewVar("X"), "X"},
		{Atom("usd"), "usd"},
		{Number(42), "42"},
		{Number(0.0096), "0.0096"},
		{Str("IBM"), `"IBM"`},
		{Comp("rate", Atom("usd"), Atom("jpy"), NewVar("R")), "rate(usd, jpy, R)"},
		{Comp(FuncMul, NewVar("V"), Number(1000)), "V * 1000"},
		{Comp(FuncMul, Comp(FuncAdd, NewVar("A"), Number(1)), Number(2)), "(A + 1) * 2"},
		{Comp(FuncAdd, NewVar("A"), Comp(FuncMul, Number(1), Number(2))), "A + 1 * 2"},
	}
	for _, tt := range tests {
		if got := tt.term.String(); got != tt.want {
			t.Errorf("String(%#v) = %q, want %q", tt.term, got, tt.want)
		}
	}
}

func TestIsGround(t *testing.T) {
	if IsGround(NewVar("X")) {
		t.Error("variable reported ground")
	}
	if !IsGround(Comp("f", Atom("a"), Number(1), Str("s"))) {
		t.Error("ground compound reported non-ground")
	}
	if IsGround(Comp("f", Atom("a"), Comp("g", NewVar("Y")))) {
		t.Error("compound with nested var reported ground")
	}
}

func TestEqualAndCompare(t *testing.T) {
	a := Comp("f", Atom("x"), Number(1))
	b := Comp("f", Atom("x"), Number(1))
	c := Comp("f", Atom("x"), Number(2))
	if !Equal(a, b) {
		t.Error("identical compounds not Equal")
	}
	if Equal(a, c) {
		t.Error("different compounds Equal")
	}
	if Compare(a, b) != 0 {
		t.Error("Compare of equal terms != 0")
	}
	if Compare(a, c) >= 0 {
		t.Error("Compare(f(x,1), f(x,2)) should be < 0")
	}
	if Compare(Number(1), Atom("a")) >= 0 {
		t.Error("numbers should order before atoms")
	}
	if Compare(Atom("a"), NewVar("X")) >= 0 {
		t.Error("atoms should order before variables")
	}
}

// genTerm generates a random term of bounded depth for property tests.
func genTerm(r *rand.Rand, depth int) Term {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(4) {
		case 0:
			return NewVar(string(rune('A' + r.Intn(6))))
		case 1:
			return Atom(string(rune('a' + r.Intn(6))))
		case 2:
			return Number(r.Intn(10))
		default:
			return Str(string(rune('p' + r.Intn(4))))
		}
	}
	n := 1 + r.Intn(3)
	args := make([]Term, n)
	for i := range args {
		args[i] = genTerm(r, depth-1)
	}
	return Compound{Functor: string(rune('f' + r.Intn(3))), Args: args}
}

// randTerm adapts genTerm to testing/quick's Generator-less interface via a
// wrapper value.
type randTerm struct{ T Term }

func (randTerm) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randTerm{T: genTerm(r, 3)})
}

func TestCompareIsTotalOrderProperty(t *testing.T) {
	// Antisymmetry: Compare(a,b) == -Compare(b,a).
	f := func(a, b randTerm) bool {
		return Compare(a.T, b.T) == -Compare(b.T, a.T)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Reflexivity via Equal.
	g := func(a randTerm) bool {
		return (Compare(a.T, a.T) == 0) == Equal(a.T, a.T) && Equal(a.T, a.T)
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRenamerConsistency(t *testing.T) {
	counter := 0
	r := renamer{counter: &counter}
	in := Comp("f", NewVar("X"), Comp("g", NewVar("X"), NewVar("Y")))
	out := r.rename(in).(Compound)
	x1 := out.Args[0].(Variable)
	g := out.Args[1].(Compound)
	x2 := g.Args[0].(Variable)
	y := g.Args[1].(Variable)
	if x1.Name != x2.Name {
		t.Errorf("same source var renamed inconsistently: %s vs %s", x1.Name, x2.Name)
	}
	if x1.Name == y.Name {
		t.Errorf("distinct source vars renamed to same name %s", x1.Name)
	}
	if x1.Name == "X" {
		t.Error("renamed variable kept its source name")
	}
}
