package datalog

import "testing"

// FuzzParseProgram checks the Prolog-ish parser never panics and accepted
// programs reprint-parse stably.
func FuzzParseProgram(f *testing.F) {
	seeds := []string{
		"p(a).",
		"q(X) :- p(X), X \\= b.",
		"cvt(V, F1, F2, V2) :- F1 \\= F2, V2 is V * F1 / F2.",
		"sf(Cur, 1000) :- Cur = 'JPY'. % comment",
		`s("str", 'atom', -3.5e2).`,
		"p(a) :-",
		"1234.",
		"p(((((",
		"a.",             // regression: zero-arity clause must reprint as bare atom
		"'0'. ",          // regression: quoted atoms that lex as numbers must stay quoted
		"\"\x15\" * ''.", // regression: raw control bytes in strings round-trip
		"(0=0)=''.",      // regression: a comparison left of a comparison keeps its parentheses
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := ParseProgram(src)
		if err != nil {
			return
		}
		text := prog.String()
		back, err := ParseProgram(text)
		if err != nil {
			t.Fatalf("accepted %q but reprint %q does not parse: %v", src, text, err)
		}
		if back.String() != text {
			t.Fatalf("unstable round trip: %q -> %q", text, back.String())
		}
	})
}
