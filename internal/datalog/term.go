// Package datalog implements the logic-inference substrate of the COIN
// mediator: first-order terms, unification, a clause store, an SLD
// resolution engine, and — crucially for context mediation — an abductive
// procedure in the style of Kakas, Kowalski and Toni ("Abductive logic
// programming", J. Logic and Computation, 1993) with a constraint store for
// (dis)equalities and order comparisons over data values that are unknown
// at mediation time.
//
// The package is deliberately self-contained (stdlib only): the paper's
// prototype used a Prolog system (ECLiPSe) as its inference engine, and the
// Go ecosystem offers no equivalent, so this package is that substrate
// built from scratch.
package datalog

import (
	"strconv"
	"strings"
)

// Term is a first-order term: a Variable, Atom, Number, Str, or Compound.
type Term interface {
	// String renders the term in Prolog-ish concrete syntax.
	String() string
	isTerm()
}

// Variable is a logic variable, identified by name. Names beginning with
// "_G" are reserved for machine-generated fresh variables.
type Variable struct {
	Name string
}

// Atom is a symbolic constant such as usd or r1.
type Atom string

// Number is a numeric constant. All arithmetic in the engine is done in
// float64; the mediator's monetary examples stay well within exact range.
type Number float64

// Str is a string constant, distinct from Atom so that SQL string literals
// survive round-trips without case or quoting ambiguity.
type Str string

// Compound is a functor applied to one or more arguments, e.g.
// rate(usd, jpy, R) or mul(X, Y).
type Compound struct {
	Functor string
	Args    []Term
}

func (Variable) isTerm() {}
func (Atom) isTerm()     {}
func (Number) isTerm()   {}
func (Str) isTerm()      {}
func (Compound) isTerm() {}

func (v Variable) String() string { return v.Name }

// atomEscaper and strEscaper are shared: strings.NewReplacer builds its
// lookup machinery lazily once and is safe for concurrent use, so
// constructing one per String call (as the rendering hot path used to)
// wastes an allocation per quoted constant.
var (
	atomEscaper = strings.NewReplacer(`\`, `\\`, `'`, `\'`)
	strEscaper  = strings.NewReplacer(`\`, `\\`, `"`, `\"`)
)

// String renders the atom, quoting it unless it is a plain lowercase
// identifier (anything else — capitals, digits-first, symbols — would
// re-lex as a variable, number or operator).
func (a Atom) String() string {
	s := string(a)
	if isPlainAtom(s) {
		return s
	}
	return "'" + atomEscaper.Replace(s) + "'"
}

func isPlainAtom(s string) bool {
	if len(s) == 0 || !(s[0] >= 'a' && s[0] <= 'z') {
		return false
	}
	for i := 1; i < len(s); i++ {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_') {
			return false
		}
	}
	return true
}

func (n Number) String() string {
	return strconv.FormatFloat(float64(n), 'g', -1, 64)
}

// String renders the string with the same minimal escaping the lexer
// understands (backslash and the quote character only; other bytes pass
// through raw), so printing and parsing are exact inverses.
func (s Str) String() string {
	return `"` + strEscaper.Replace(string(s)) + `"`
}

// infixOps maps functors that render infix to their surface spelling and
// precedence level (higher binds tighter). Levels match the parser.
var infixOps = map[string]struct {
	op    string
	level int
}{
	"=": {"=", 0}, "\\=": {"\\=", 0}, "<": {"<", 0}, ">": {">", 0},
	"=<": {"=<", 0}, ">=": {">=", 0}, "is": {"is", 0},
	FuncAdd: {"+", 1}, FuncSub: {"-", 1},
	FuncMul: {"*", 2}, FuncDiv: {"/", 2},
}

func (c Compound) String() string { return c.render(-1) }

// render prints the compound, parenthesizing when its operator binds no
// tighter than the enclosing context.
func (c Compound) render(outer int) string {
	if info, ok := infixOps[c.Functor]; ok && len(c.Args) == 2 {
		lo := info.level - 1 // arithmetic is left-assoc: same level OK on the left
		if info.level == 0 {
			lo = 0 // comparisons are non-associative: parenthesize either side
		}
		l := renderOperand(c.Args[0], lo)
		r := renderOperand(c.Args[1], info.level)
		s := l + " " + info.op + " " + r
		if info.level <= outer {
			return "(" + s + ")"
		}
		return s
	}
	if c.Functor == FuncNeg && len(c.Args) == 1 {
		return "-" + renderOperand(c.Args[0], 2)
	}
	if len(c.Args) == 0 {
		return Atom(c.Functor).String() // zero-arity: bare atom syntax
	}
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return Atom(c.Functor).String() + "(" + strings.Join(parts, ", ") + ")"
}

func renderOperand(t Term, outer int) string {
	if c, ok := t.(Compound); ok {
		return c.render(outer)
	}
	return t.String()
}

// NewVar returns a Variable with the given name.
func NewVar(name string) Variable { return Variable{Name: name} }

// Comp builds a Compound term.
func Comp(functor string, args ...Term) Compound {
	return Compound{Functor: functor, Args: args}
}

// IsGround reports whether t contains no variables.
func IsGround(t Term) bool {
	switch t := t.(type) {
	case Variable:
		return false
	case Compound:
		for _, a := range t.Args {
			if !IsGround(a) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// Vars appends the variables occurring in t to dst, left to right, with
// duplicates, and returns the extended slice.
func Vars(t Term, dst []Variable) []Variable {
	switch t := t.(type) {
	case Variable:
		return append(dst, t)
	case Compound:
		for _, a := range t.Args {
			dst = Vars(a, dst)
		}
	}
	return dst
}

// varNames appends the distinct variable names of t to dst in
// first-occurrence order, deduplicating by linear scan (terms have a
// handful of variables; this avoids the intermediate slice Vars builds).
func varNames(t Term, dst []string) []string {
	switch t := t.(type) {
	case Variable:
		for _, n := range dst {
			if n == t.Name {
				return dst
			}
		}
		return append(dst, t.Name)
	case Compound:
		for _, a := range t.Args {
			dst = varNames(a, dst)
		}
	}
	return dst
}

// canonKey appends an injective byte encoding of t to dst and returns the
// extended slice: two terms produce the same key iff Equal holds (modulo
// -0 == +0, which Equal and Unify also conflate). Unlike String(), it
// distinguishes e.g. Number(-1) from neg(1) and Atom("a") from the
// zero-arity compound a(). Every token is type-tagged and every string is
// length-prefixed; compounds carry their arity, so concatenation is
// unambiguous even for names containing arbitrary bytes.
func canonKey(dst []byte, t Term) []byte {
	switch t := t.(type) {
	case Variable:
		dst = append(dst, 'v')
		dst = appendLenStr(dst, t.Name)
	case Atom:
		dst = append(dst, 'a')
		dst = appendLenStr(dst, string(t))
	case Str:
		dst = append(dst, 's')
		dst = appendLenStr(dst, string(t))
	case Number:
		f := float64(t)
		if f == 0 {
			f = 0 // normalize -0 to +0, matching float equality
		}
		dst = append(dst, 'n')
		dst = strconv.AppendFloat(dst, f, 'b', -1, 64)
		dst = append(dst, ';')
	case Compound:
		dst = append(dst, 'c')
		dst = strconv.AppendInt(dst, int64(len(t.Args)), 10)
		dst = appendLenStr(dst, t.Functor)
		for _, a := range t.Args {
			dst = canonKey(dst, a)
		}
	}
	return dst
}

func appendLenStr(dst []byte, s string) []byte {
	dst = strconv.AppendInt(dst, int64(len(s)), 10)
	dst = append(dst, ':')
	return append(dst, s...)
}

// Equal reports structural equality of two terms (variables equal iff their
// names are equal).
func Equal(a, b Term) bool {
	switch a := a.(type) {
	case Variable:
		b, ok := b.(Variable)
		return ok && a.Name == b.Name
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
			if !Equal(a.Args[i], b.Args[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Compare orders terms: Number < Str < Atom < Variable < Compound, with
// natural ordering within each kind. It gives a deterministic order for
// canonicalizing constraint sets and test output.
func Compare(a, b Term) int {
	ra, rb := termRank(a), termRank(b)
	if ra != rb {
		return ra - rb
	}
	switch a := a.(type) {
	case Number:
		b := b.(Number)
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case Str:
		return strings.Compare(string(a), string(b.(Str)))
	case Atom:
		return strings.Compare(string(a), string(b.(Atom)))
	case Variable:
		return strings.Compare(a.Name, b.(Variable).Name)
	case Compound:
		b := b.(Compound)
		if c := strings.Compare(a.Functor, b.Functor); c != 0 {
			return c
		}
		if c := len(a.Args) - len(b.Args); c != 0 {
			return c
		}
		for i := range a.Args {
			if c := Compare(a.Args[i], b.Args[i]); c != 0 {
				return c
			}
		}
		return 0
	}
	return 0
}

func termRank(t Term) int {
	switch t.(type) {
	case Number:
		return 0
	case Str:
		return 1
	case Atom:
		return 2
	case Variable:
		return 3
	case Compound:
		return 4
	}
	return 5
}

// renamer rewrites variable names to fresh ones, consistently within one
// clause instance. Clauses have a handful of variables, so the mapping is
// two parallel slices scanned linearly. vals stores the fresh variables
// pre-boxed as Terms, so repeated occurrences of one variable cost no
// interface allocation.
type renamer struct {
	counter *int
	keys    []string
	vals    []Term // always Variable, boxed once
}

func (r *renamer) rename(t Term) Term {
	switch t := t.(type) {
	case Variable:
		for i, k := range r.keys {
			if k == t.Name {
				return r.vals[i]
			}
		}
		*r.counter++
		v := Term(Variable{Name: "_G" + strconv.Itoa(*r.counter)})
		r.keys = append(r.keys, t.Name)
		r.vals = append(r.vals, v)
		return v
	case Compound:
		if IsGround(t) {
			return t // nothing to rename; share the term
		}
		args := make([]Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = r.rename(a)
		}
		return Compound{Functor: t.Functor, Args: args}
	default:
		return t
	}
}
