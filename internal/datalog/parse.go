package datalog

import (
	"fmt"
	"strconv"
	"strings"
)

// This file implements a small Prolog-ish concrete syntax for clauses.
// ParseGoals reads the bodies of integrity constraints (denials); the
// tests write their programs and goals in it:
//
//	sf(Cur, 1000) :- Cur = 'JPY'.
//	sf(Cur, 1)    :- Cur \= 'JPY'.
//	cvt(V, F1, F2, V2) :- F1 \= F2, V2 is V * F1 / F2.   % comment
//
// Atoms are lowercase identifiers or quoted 'like this'; variables start
// with an uppercase letter or underscore; strings are double-quoted;
// numbers are Go float literals. Infix operators, loosest first:
// comparisons (=, \=, <, >, =<, <=, >=, is), additive (+, -),
// multiplicative (*, /).

type tokKind int

const (
	tokEOF tokKind = iota
	tokAtom
	tokVar
	tokNumber
	tokString
	tokPunct // ( ) , .
	tokOp    // = \= < > =< <= >= is + - * /
)

type token struct {
	kind tokKind
	text string
	num  float64
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func lexProlog(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpaceAndComments()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case c == '%':
			// handled by skipSpaceAndComments; unreachable
		case c == '(' || c == ')' || c == ',' || c == '.':
			// A '.' followed by a digit is part of a number (e.g. .5 is
			// not supported; 0.5 is). A clause-terminating '.' is
			// standalone.
			l.pos++
			l.toks = append(l.toks, token{kind: tokPunct, text: string(c), pos: start})
		case c == '\'':
			s, err := l.quoted('\'')
			if err != nil {
				return nil, err
			}
			l.toks = append(l.toks, token{kind: tokAtom, text: s, pos: start})
		case c == '"':
			s, err := l.quoted('"')
			if err != nil {
				return nil, err
			}
			l.toks = append(l.toks, token{kind: tokString, text: s, pos: start})
		case strings.ContainsRune("=\\<>+-*/:", rune(c)):
			op := l.operator()
			if op == "" {
				return nil, fmt.Errorf("datalog: bad operator at byte %d", start)
			}
			l.toks = append(l.toks, token{kind: tokOp, text: op, pos: start})
		case c >= '0' && c <= '9':
			numStr := l.number()
			v, err := strconv.ParseFloat(numStr, 64)
			if err != nil {
				return nil, fmt.Errorf("datalog: bad number %q at byte %d", numStr, start)
			}
			l.toks = append(l.toks, token{kind: tokNumber, text: numStr, num: v, pos: start})
		case c == '_' || c >= 'A' && c <= 'Z':
			name := l.ident()
			l.toks = append(l.toks, token{kind: tokVar, text: name, pos: start})
		case c >= 'a' && c <= 'z':
			name := l.ident()
			if name == "is" {
				l.toks = append(l.toks, token{kind: tokOp, text: "is", pos: start})
			} else {
				l.toks = append(l.toks, token{kind: tokAtom, text: name, pos: start})
			}
		default:
			return nil, fmt.Errorf("datalog: unexpected character %q at byte %d", c, start)
		}
	}
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '%' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		return
	}
}

func (l *lexer) quoted(q byte) (string, error) {
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\\' && l.pos+1 < len(l.src) {
			l.pos += 2
			switch l.src[l.pos-1] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			default:
				b.WriteByte(l.src[l.pos-1])
			}
			continue
		}
		if c == q {
			l.pos++
			return b.String(), nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return "", fmt.Errorf("datalog: unterminated quote starting at byte %d", l.pos)
}

func (l *lexer) operator() string {
	two := ""
	if l.pos+2 <= len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case ":-", "\\=", "=<", "<=", ">=":
		l.pos += 2
		return two
	}
	switch l.src[l.pos] {
	case '=', '<', '>', '+', '-', '*', '/':
		l.pos++
		return string(l.src[l.pos-1])
	}
	return ""
}

func (l *lexer) number() string {
	start := l.pos
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' {
			if c == '.' {
				// Lookahead: a '.' not followed by a digit terminates the
				// clause, not the number.
				if l.pos+1 >= len(l.src) || l.src[l.pos+1] < '0' || l.src[l.pos+1] > '9' {
					break
				}
			}
			l.pos++
			continue
		}
		if (c == '+' || c == '-') && l.pos > start && (l.src[l.pos-1] == 'e' || l.src[l.pos-1] == 'E') {
			l.pos++
			continue
		}
		break
	}
	return l.src[start:l.pos]
}

func (l *lexer) ident() string {
	start := l.pos
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		// ASCII only: byte-wise lexing must not split multibyte runes.
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' {
			l.pos++
			continue
		}
		break
	}
	return l.src[start:l.pos]
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

// next consumes and returns the current token. The trailing EOF token is
// never consumed, so peek stays in bounds after any error path.
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }
func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("datalog: parse error at byte %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

// ParseProgram parses a sequence of clauses.
func ParseProgram(src string) (*Program, error) {
	toks, err := lexProlog(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := NewProgram()
	for !p.atEOF() {
		c, err := p.clause()
		if err != nil {
			return nil, err
		}
		prog.Add(c)
	}
	return prog, nil
}

// ParseTerm parses a single term (no trailing '.').
func ParseTerm(src string) (Term, error) {
	toks, err := lexProlog(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	t, err := p.expr(0)
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("trailing input after term")
	}
	return t, nil
}

// ParseGoals parses a comma-separated conjunction of goals.
func ParseGoals(src string) ([]Term, error) {
	toks, err := lexProlog(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	goals, err := p.conjunction()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("trailing input after goals")
	}
	return goals, nil
}

func (p *parser) clause() (Clause, error) {
	head, err := p.expr(0)
	if err != nil {
		return Clause{}, err
	}
	hc, ok := toCallable(head)
	if !ok {
		return Clause{}, p.errf("clause head %s is not callable", head)
	}
	t := p.peek()
	if t.kind == tokOp && t.text == ":-" {
		p.next()
		body, err := p.conjunction()
		if err != nil {
			return Clause{}, err
		}
		if err := p.expectDot(); err != nil {
			return Clause{}, err
		}
		return Clause{Head: hc, Body: body}, nil
	}
	if err := p.expectDot(); err != nil {
		return Clause{}, err
	}
	return Clause{Head: hc}, nil
}

func toCallable(t Term) (Compound, bool) {
	switch t := t.(type) {
	case Compound:
		return t, true
	case Atom:
		return Compound{Functor: string(t)}, true
	}
	return Compound{}, false
}

func (p *parser) expectDot() error {
	t := p.peek()
	if t.kind == tokPunct && t.text == "." {
		p.next()
		return nil
	}
	return p.errf("expected '.', found %q", t.text)
}

func (p *parser) conjunction() ([]Term, error) {
	var goals []Term
	for {
		g, err := p.expr(0)
		if err != nil {
			return nil, err
		}
		goals = append(goals, g)
		t := p.peek()
		if t.kind == tokPunct && t.text == "," {
			p.next()
			continue
		}
		return goals, nil
	}
}

// Operator precedence: level 0 = comparisons (non-associative),
// level 1 = + -, level 2 = * /.
func opLevel(op string) (level int, ok bool) {
	switch op {
	case "=", "\\=", "<", ">", "=<", "<=", ">=", "is":
		return 0, true
	case "+", "-":
		return 1, true
	case "*", "/":
		return 2, true
	}
	return 0, false
}

func opFunctor(op string) string {
	switch op {
	case "+":
		return FuncAdd
	case "-":
		return FuncSub
	case "*":
		return FuncMul
	case "/":
		return FuncDiv
	case "<=":
		return "=<" // normalize to Prolog spelling; solver accepts both
	}
	return op
}

func (p *parser) expr(minLevel int) (Term, error) {
	left, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokOp {
			return left, nil
		}
		level, ok := opLevel(t.text)
		if !ok || level < minLevel {
			return left, nil
		}
		p.next()
		// Comparisons are non-associative: their operands are parsed at
		// the next level up, so "A = B = C" is a syntax error.
		right, err := p.expr(level + 1)
		if err != nil {
			return nil, err
		}
		left = Comp(opFunctor(t.text), left, right)
		if level == 0 {
			return left, nil
		}
	}
}

func (p *parser) primary() (Term, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		return Number(t.num), nil
	case tokString:
		return Str(t.text), nil
	case tokVar:
		return Variable{Name: t.text}, nil
	case tokAtom:
		nt := p.peek()
		if nt.kind == tokPunct && nt.text == "(" {
			p.next()
			var args []Term
			for {
				a, err := p.expr(0)
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				sep := p.next()
				if sep.kind == tokPunct && sep.text == "," {
					continue
				}
				if sep.kind == tokPunct && sep.text == ")" {
					break
				}
				return nil, p.errf("expected ',' or ')' in argument list, found %q", sep.text)
			}
			return Compound{Functor: t.text, Args: args}, nil
		}
		return Atom(t.text), nil
	case tokOp:
		if t.text == "-" { // unary minus
			inner, err := p.primary()
			if err != nil {
				return nil, err
			}
			if n, ok := inner.(Number); ok {
				return Number(-n), nil
			}
			return Comp(FuncNeg, inner), nil
		}
		return nil, p.errf("unexpected operator %q", t.text)
	case tokPunct:
		if t.text == "(" {
			inner, err := p.expr(0)
			if err != nil {
				return nil, err
			}
			cl := p.next()
			if cl.kind != tokPunct || cl.text != ")" {
				return nil, p.errf("expected ')', found %q", cl.text)
			}
			return inner, nil
		}
		return nil, p.errf("unexpected %q", t.text)
	default:
		return nil, p.errf("unexpected end of input")
	}
}

// MustParseProgram is ParseProgram that panics on error; for tests and
// compiled-in rule text.
func MustParseProgram(src string) *Program {
	p, err := ParseProgram(src)
	if err != nil {
		panic(err)
	}
	return p
}

// MustParseTerm is ParseTerm that panics on error.
func MustParseTerm(src string) Term {
	t, err := ParseTerm(src)
	if err != nil {
		panic(err)
	}
	return t
}
