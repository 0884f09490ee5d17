package relalg

import "testing"

// TestValueKeyCollisionRegression pins the hash-key encoding against the
// separator-injection collision: under the old unprefixed encoding a
// string value containing "\x1f" (the separator Tuple.Key writes between
// columns) produced the same key as the adjacent values it imitated —
// ("a\x1fsb") encoded exactly like ("a","b"), and the same-arity pair
// ("a\x1fsb","c") exactly like ("a","b\x1fsc") — silently merging
// distinct rows in DISTINCT, GROUP BY, hash joins and bind-join probe
// dedup. The length-prefixed encoding keeps every sequence distinct.
func TestValueKeyCollisionRegression(t *testing.T) {
	cases := []struct{ a, b Tuple }{
		// Arity 1 vs 2: the injected value imitates two adjacent columns.
		{Tuple{StrV("a\x1fsb")}, Tuple{StrV("a"), StrV("b")}},
		// Same arity (2 vs 2): the boundary between columns shifts.
		{Tuple{StrV("a\x1fsb"), StrV("c")}, Tuple{StrV("a"), StrV("b\x1fsc")}},
		// Kind-prefix imitation: a string starting with the number tag.
		{Tuple{StrV("n1")}, Tuple{NumV(1)}},
	}
	for i, c := range cases {
		if c.a.FullKey() == c.b.FullKey() {
			t.Errorf("case %d: tuples %v and %v share key %q", i, c.a, c.b, c.a.FullKey())
		}
	}
}

// TestDistinctSurvivesSeparatorInjection drives the collision through a
// user-visible operator: DISTINCT over two genuinely different rows that
// collided under the old encoding must keep both.
func TestDistinctSurvivesSeparatorInjection(t *testing.T) {
	schema := NewSchema(Column{Name: "x", Type: KindString}, Column{Name: "y", Type: KindString})
	rel := NewRelation("inj", schema)
	rel.MustAdd(StrV("a\x1fsb"), StrV("c"))
	rel.MustAdd(StrV("a"), StrV("b\x1fsc"))
	out := drain(t, NewDistinct(NewScan(rel)))
	if out.Len() != 2 {
		t.Fatalf("DISTINCT merged colliding rows: got %d tuples, want 2\n%s", out.Len(), out)
	}
	if sameTuples(rel, out) != true {
		t.Errorf("DISTINCT changed the tuple bag:\n%s\nvs\n%s", rel, out)
	}
}
