package relalg

// Alloc-regression tests: pin the allocation budgets that batch
// execution and value interning bought, so a later change cannot
// silently re-inflate them. The budgets carry roughly 2x headroom over
// measured values — they gate order-of-magnitude regressions (per-tuple
// allocation sneaking back into the hot loop), not single-alloc drift.

import (
	"context"
	"fmt"
	"runtime"
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

// joinDistinct drains HashJoin(a ⋈ b on the string key) → DISTINCT, the
// pipeline shape the key table serves twice, and returns the output row
// count.
func joinDistinct(ra, rb *Relation) (int, error) {
	hj, err := NewHashJoin(NewScan(ra), NewScan(rb), []string{"a.k"}, []string{"b.k"}, nil, true, nil)
	if err != nil {
		return 0, err
	}
	d := NewDistinct(hj)
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

// TestHashJoinDistinctAllocBudget pins the allocation shape of the
// hash-join + DISTINCT microbench: a fixed handful of tables, arena
// chunks and output batches per query, not one allocation per row. Before
// the key table each DISTINCT-surviving row cost one (its key string
// outlived the batch as a map key), about 2,100 at 2,048 rows; now the
// count grows only with the doubling steps and the output batches.
func TestHashJoinDistinctAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	for _, rows := range []int{2048, 16384} {
		ra, rb := allocRelations(rows)
		var got int
		allocs := testing.AllocsPerRun(5, func() {
			var err error
			if got, err = joinDistinct(ra, rb); err != nil {
				t.Fatal(err)
			}
		})
		if got != rows {
			t.Fatalf("join emitted %d rows, want %d", got, rows)
		}
		t.Logf("hash-join+DISTINCT over %d rows: %.0f allocs/query", rows, allocs)
		const budget = 160 // measured 98 at 2,048 rows, 126 at 16,384
		if allocs > budget {
			t.Errorf("hash-join+DISTINCT over %d rows allocates %.0f/query, budget %d", rows, allocs, budget)
		}
	}
}

// TestBuildTableApproxBytes pins BuildTable.ApproxBytes to what building
// the table allocates: everything beyond the rows (which the build side's
// drain allocated) is the table's own, counted from its capacities. The
// slack is 10% plus what the estimate leaves out on purpose: the table's
// header and the build's key scratch buffer.
func TestBuildTableApproxBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	for _, rows := range []int{10, 1000, 20000} {
		rel, _ := allocRelations(rows)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tbl := buildHJTable(rel.Tuples, []int{0, 1})
		runtime.ReadMemStats(&after)
		alloc := int64(after.TotalAlloc - before.TotalAlloc)
		own := tbl.ApproxBytes() - rel.ApproxBytes()
		t.Logf("%d rows: ApproxBytes %d (table's own %d), build allocated %d", rows, tbl.ApproxBytes(), own, alloc)
		if slack := alloc/10 + 256; own < alloc-slack || own > alloc+slack {
			t.Errorf("%d rows: the table's own ApproxBytes is %d, building it allocated %d", rows, own, alloc)
		}
	}
}
