package sqlparse

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse checks the parser never panics and that accepted statements
// round-trip through the printer. Seeds mix hand-picked regressions with
// the golden regression corpus, so every query shape the harness pins is
// also a fuzzing starting point.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT a FROM t",
		"SELECT rl.cname, rl.revenue FROM rl, r2 WHERE rl.cname = r2.cname AND rl.revenue > r2.expenses",
		"SELECT rl.revenue * 1000 * r3.rate FROM rl, r3 WHERE rl.currency = 'JPY'",
		"SELECT DISTINCT a.x AS y FROM a ORDER BY y DESC LIMIT 3",
		"SELECT COUNT(*) FROM t GROUP BY t.k HAVING COUNT(*) > 2",
		"SELECT a FROM t UNION ALL SELECT b FROM u",
		"SELECT a FROM t WHERE x IS NOT NULL OR NOT y = 'O''Brien'",
		"SELECT -x + 3 * (y - 2.5e3) FROM t -- comment",
		"SELECT * FROM",
		"((((",
		"SELECT 'unterminated",
		"SELECT \xe6()FROM A", // regression: stray multibyte byte must not lex as identifier
		"SELECT- -A(0)FROM A", // regression: a minus over a minus must not print as a comment
	}
	for _, s := range seeds {
		f.Add(s)
	}
	// The golden corpus (directive comments included — the parser skips
	// `--` lines). Best-effort: absent when the package is built outside
	// the repo tree.
	if entries, err := os.ReadDir("../golden/testdata/queries"); err == nil {
		for _, e := range entries {
			if e.IsDir() || filepath.Ext(e.Name()) != ".sql" {
				continue
			}
			body, err := os.ReadFile(filepath.Join("../golden/testdata/queries", e.Name()))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(body))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		text := stmt.String()
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("accepted %q but reprint %q does not parse: %v", src, text, err)
		}
		if back.String() != text {
			t.Fatalf("unstable round trip: %q -> %q", text, back.String())
		}
	})
}
