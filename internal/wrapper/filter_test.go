package wrapper

import (
	"math"
	"strings"
	"testing"

	"repro/internal/relalg"
	"repro/internal/sqlparse"
)

// TestFilterMatchesLocalSelection: a filter pushed to a wrapper and the
// same comparison run in relalg agree on every operator and every pair of
// values NULL, NaN (two payloads), −0, 0, 1, two strings and TRUE, and
// both follow the stated rule: NULL on either side is false; two kinds
// are unequal and unordered; numbers compare as IEEE floats, so a NaN is
// neither equal, less nor greater.
func TestFilterMatchesLocalSelection(t *testing.T) {
	vals := []relalg.Value{
		relalg.Null,
		relalg.NumV(math.NaN()),
		relalg.NumV(math.Float64frombits(0xFFF8000000000ABC)),
		relalg.NumV(math.Copysign(0, -1)),
		relalg.NumV(0),
		relalg.NumV(1),
		relalg.StrV("a"),
		relalg.StrV("b"),
		relalg.BoolV(true),
	}
	schema := relalg.NewSchema(relalg.Column{Name: "t.a"}, relalg.Column{Name: "t.b"})
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		local := relalg.CompileBool(sqlparse.Bin(op, sqlparse.Col("t", "a"), sqlparse.Col("t", "b")), schema)
		for _, v := range vals {
			for _, c := range vals {
				pushed, err := Filter{Column: "a", Op: op, Value: c}.Compile()(v)
				if err != nil {
					t.Fatal(err)
				}
				here, err := local(relalg.Tuple{v, c})
				if err != nil {
					t.Fatal(err)
				}
				if want := ruleHolds(op, v, c); pushed != want || here != want {
					t.Errorf("%v %s %v: wrapper %v, relalg %v, rule %v", v, op, c, pushed, here, want)
				}
			}
		}
	}
}

// ruleHolds states the comparison rule without relalg's help.
func ruleHolds(op string, v, c relalg.Value) bool {
	switch {
	case v.IsNull() || c.IsNull():
		return false
	case v.K != c.K:
		return op == "<>"
	case v.K == relalg.KindNumber:
		a, b := v.N, c.N
		return map[string]bool{"=": a == b, "<>": a != b, "<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[op]
	}
	cmp := strings.Compare(v.String(), c.String()) // strings, or TRUE against TRUE
	return map[string]bool{"=": cmp == 0, "<>": cmp != 0, "<": cmp < 0, "<=": cmp <= 0, ">": cmp > 0, ">=": cmp >= 0}[op]
}
