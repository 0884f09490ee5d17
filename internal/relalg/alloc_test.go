package relalg

// Alloc-regression tests: pin the allocation budgets that batch
// execution and value interning bought, so a later change cannot
// silently re-inflate them. The budgets carry roughly 2x headroom over
// measured values — they gate order-of-magnitude regressions (per-tuple
// allocation sneaking back into the hot loop), not single-alloc drift.

import (
	"context"
	"fmt"
	"testing"
	"unsafe"
)

// TestValueFootprint pins the Value diet (one word of number, two of
// string header, one shared by kind and bool): every tuple arena, build
// table and cached answer is sized in multiples of it, and the session
// cache's byte budget (Relation.ApproxBytes) must follow it.
func TestValueFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("Value is %d bytes, want 32", got)
	}
	rel := NewRelation("r", NewSchema(Column{"s", KindString}, Column{"n", KindNumber}))
	rel.MustAdd(StrV("abcd"), NumV(1))
	if got, want := rel.ApproxBytes(), int64(24+2*32+4); got != want {
		t.Errorf("ApproxBytes = %d, want %d (row header + two values + string payload)", got, want)
	}
}

// allocRelations builds two string-keyed relations: a holds n rows with
// unique keys, b holds n rows over n/4 of those keys, so the join emits
// exactly n rows and DISTINCT sees a high-cardinality string column.
func allocRelations(n int) (*Relation, *Relation) {
	a := NewRelation("a", NewSchema(Column{"a.k", KindString}, Column{"a.v", KindNumber}))
	b := NewRelation("b", NewSchema(Column{"b.k", KindString}, Column{"b.w", KindNumber}))
	for i := 0; i < n; i++ {
		a.MustAdd(StrV(fmt.Sprintf("key-%05d", i)), NumV(float64(i)))
		b.MustAdd(StrV(fmt.Sprintf("key-%05d", i%(n/4))), NumV(float64(i%7)))
	}
	return a, b
}

// joinDistinct drains HashJoin(a ⋈ b on the string key) → DISTINCT with
// a shared interner pool, the exact pipeline shape the interning work
// targets, and returns the output row count.
func joinDistinct(ra, rb *Relation, pool *Interner) (int, error) {
	hj, err := NewHashJoin(NewScan(ra), NewScan(rb), []string{"a.k"}, []string{"b.k"}, nil, true, nil)
	if err != nil {
		return 0, err
	}
	d := NewDistinct(hj)
	d.Intern = pool
	if err := d.Open(context.Background()); err != nil {
		return 0, err
	}
	defer d.Close()
	n := 0
	for {
		b, err := d.Next(DefaultBatchSize)
		if err != nil {
			return 0, err
		}
		if b.Empty() {
			return n, nil
		}
		n += b.Len()
	}
}

// TestHashJoinDistinctAllocBudget pins the per-query allocation budget of
// the hash-join + DISTINCT microbench. Before batching and interning the
// same pipeline cost one tuple allocation per row plus one key encoding
// per probe plus per-row map traffic — five-plus allocations per output
// row. What remains is the one inherent allocation per DISTINCT-surviving
// row (its dedup key must outlive the batch as a map key); the budget
// asserts nothing beyond that creeps back in.
func TestHashJoinDistinctAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	const rows = 2048
	ra, rb := allocRelations(rows)
	want, err := joinDistinct(ra, rb, NewInterner())
	if err != nil {
		t.Fatal(err)
	}
	if want != rows {
		t.Fatalf("join emitted %d rows, want %d", want, rows)
	}
	allocs := testing.AllocsPerRun(5, func() {
		got, err := joinDistinct(ra, rb, NewInterner())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("rows = %d, want %d", got, want)
		}
	})
	t.Logf("hash-join+DISTINCT over %d rows: %.0f allocs/query", rows, allocs)
	const budget = 4300 // measured ~2145 (≈1/row); ~2x headroom
	if allocs > budget {
		t.Errorf("hash-join+DISTINCT allocates %.0f/query, budget %d", allocs, budget)
	}
}
