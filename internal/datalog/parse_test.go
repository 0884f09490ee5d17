package datalog

import (
	"fmt"
	"strings"
	"testing"
)

// parseClause parses a one-clause program and returns its clause.
func parseClause(src string) (Clause, error) {
	prog, err := ParseProgram(src)
	if err != nil {
		return Clause{}, err
	}
	if len(prog.order) != 1 || len(prog.clauses[prog.order[0]]) != 1 {
		return Clause{}, fmt.Errorf("%q is not one clause", src)
	}
	return prog.clauses[prog.order[0]][0], nil
}

func TestParseFact(t *testing.T) {
	c, err := parseClause("parent(tom, bob).")
	if err != nil {
		t.Fatal(err)
	}
	if c.Head.Functor != "parent" || len(c.Head.Args) != 2 || len(c.Body) != 0 {
		t.Errorf("parsed %v", c)
	}
}

func TestParseRuleWithOperators(t *testing.T) {
	c, err := parseClause(`cvt(V, F1, F2, V2) :- F1 \= F2, V2 is V * F1 / F2.`)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Body) != 2 {
		t.Fatalf("body length = %d, want 2", len(c.Body))
	}
	neq := c.Body[0].(Compound)
	if neq.Functor != "\\=" {
		t.Errorf("first goal functor = %q", neq.Functor)
	}
	is := c.Body[1].(Compound)
	if is.Functor != "is" {
		t.Fatalf("second goal functor = %q", is.Functor)
	}
	// V * F1 / F2 must parse left-associatively: div(mul(V,F1),F2).
	expr := is.Args[1].(Compound)
	if expr.Functor != FuncDiv {
		t.Fatalf("expr = %s, want div(...)", expr)
	}
	if inner, ok := expr.Args[0].(Compound); !ok || inner.Functor != FuncMul {
		t.Errorf("expr = %s, want div(mul(V,F1),F2)", expr)
	}
}

func TestParsePrecedence(t *testing.T) {
	term := MustParseTerm("X is A + B * C")
	is := term.(Compound)
	add := is.Args[1].(Compound)
	if add.Functor != FuncAdd {
		t.Fatalf("got %s, want add at top", add)
	}
	if mul, ok := add.Args[1].(Compound); !ok || mul.Functor != FuncMul {
		t.Errorf("got %s, want mul nested right", add)
	}
}

func TestParseParens(t *testing.T) {
	term := MustParseTerm("X is (A + B) * C")
	mul := term.(Compound).Args[1].(Compound)
	if mul.Functor != FuncMul {
		t.Fatalf("got %s, want mul at top", mul)
	}
	if add, ok := mul.Args[0].(Compound); !ok || add.Functor != FuncAdd {
		t.Errorf("got %s, want add nested left", mul)
	}
}

func TestParseQuotedAtomAndString(t *testing.T) {
	term := MustParseTerm(`pair('JPY', "NTT Corp")`).(Compound)
	if !Equal(term.Args[0], Atom("JPY")) {
		t.Errorf("arg0 = %#v, want Atom(JPY)", term.Args[0])
	}
	if !Equal(term.Args[1], Str("NTT Corp")) {
		t.Errorf("arg1 = %#v, want Str(NTT Corp)", term.Args[1])
	}
}

func TestParseNumbers(t *testing.T) {
	for src, want := range map[string]float64{
		"f(0)":         0,
		"f(42)":        42,
		"f(0.0096)":    0.0096,
		"f(1e3)":       1000,
		"f(2.5e-2)":    0.025,
		"f(-7)":        -7,
		"f(100000000)": 1e8,
	} {
		term := MustParseTerm(src).(Compound)
		n, ok := term.Args[0].(Number)
		if !ok || float64(n) != want {
			t.Errorf("%s: got %v, want %v", src, term.Args[0], want)
		}
	}
}

func TestParseCommentsAndWhitespace(t *testing.T) {
	prog, err := ParseProgram(`
		% facts about parents
		parent(tom, bob). % inline comment
		parent(bob, ann).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(prog.Clauses("parent", 2)); n != 2 {
		t.Errorf("clause count = %d, want 2", n)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"p(a",          // unclosed args
		"p(a) :- q(b)", // missing dot
		"3(a).",        // number as functor
		"p('unterm).",  // unterminated quote
		"p(a) :- .",    // empty body
		"X = Y = Z.",   // non-associative comparison chain
	}
	for _, src := range bad {
		if _, err := ParseProgram(src); err == nil {
			t.Errorf("ParseProgram(%q) succeeded, want error", src)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	srcs := []string{
		"parent(tom, bob).",
		"grand(X, Z) :- parent(X, Y), parent(Y, Z).",
		`sf(Cur, 1000) :- Cur = 'JPY'.`,
		"taxed(I, T) :- price(I, P), T is mul(P, 1.08).",
	}
	for _, src := range srcs {
		c1, err := parseClause(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		c2, err := parseClause(c1.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", c1.String(), err)
		}
		if c1.String() != c2.String() {
			t.Errorf("round trip changed clause:\n  %s\n  %s", c1, c2)
		}
	}
}

func TestProgramString(t *testing.T) {
	prog := MustParseProgram("a(1).\nb(X) :- a(X).")
	s := prog.String()
	if !strings.Contains(s, "a(1).") || !strings.Contains(s, "b(X) :- a(X).") {
		// The renamed variable keeps its name in the clause store.
		t.Errorf("Program.String() = %q", s)
	}
}

func TestProgramCloneIsolation(t *testing.T) {
	p := MustParseProgram("a(1).")
	q := p.Clone()
	q.Add(Fact("a", Number(2)))
	if len(p.Clauses("a", 1)) != 1 {
		t.Error("Clone is not isolated from original")
	}
	if len(q.Clauses("a", 1)) != 2 {
		t.Error("Clone lost added clause")
	}
}
