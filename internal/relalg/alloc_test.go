package relalg

// Alloc-regression tests: pin the allocation budgets that batch
// execution and value interning bought, so a later change cannot
// silently re-inflate them. The budgets carry roughly 2x headroom over
// measured values — they gate order-of-magnitude regressions (per-tuple
// allocation sneaking back into the hot loop), not single-alloc drift.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
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
// header and the build's key scratch buffer. TotalAlloc is process-wide
// and other goroutines can only add to it, so the build's own figure is
// the smallest delta over several builds.
func TestBuildTableApproxBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	for _, rows := range []int{10, 1000, 20000} {
		rel, _ := allocRelations(rows)
		var tbl *BuildTable
		alloc := int64(math.MaxInt64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			tbl = buildHJTable(rel.Tuples, []int{0, 1})
			runtime.ReadMemStats(&after)
			alloc = min(alloc, int64(after.TotalAlloc-before.TotalAlloc))
		}
		own := tbl.ApproxBytes() - rel.ApproxBytes()
		t.Logf("%d rows: ApproxBytes %d (table's own %d), build allocated %d", rows, tbl.ApproxBytes(), own, alloc)
		if slack := alloc/10 + 256; own < alloc-slack || own > alloc+slack {
			t.Errorf("%d rows: the table's own ApproxBytes is %d, building it allocated %d", rows, own, alloc)
		}
	}
}

// TestFoldedJoinAllocatesItemsOnly pins what folding a select list into
// a join buys: over a 10,000-row probe, the folded join's arena holds
// len(items) values per row, where the plain join's holds the whole
// concatenated row, and a projection over the join (its arena recycled,
// as the planner marks it) still pays for the join's arena besides its
// own.
func TestFoldedJoinAllocatesItemsOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	const rows = 10000
	ra, rb := allocRelations(rows)
	items := []ProjectItem{{Name: "w2", Expr: expr(t, "b.w * 2")}}
	join := func() *HashJoinIter {
		hj, err := NewHashJoin(NewScan(ra), NewScan(rb), []string{"a.k"}, []string{"b.k"}, nil, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		return hj
	}
	drained := func(mk func() Iterator) int64 {
		least := int64(math.MaxInt64)
		for range 5 {
			it := mk()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			rel, err := Collect(context.Background(), it, "")
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if rel.Len() != rows {
				t.Fatalf("%d rows, want %d", rel.Len(), rows)
			}
			least = min(least, int64(after.TotalAlloc-before.TotalAlloc))
		}
		return least
	}
	wide := drained(func() Iterator { return join() })
	folded := drained(func() Iterator {
		hj := join()
		if !FuseProject(NewCounted(hj, new(atomic.Int64)), items) {
			t.Fatal("FuseProject did not reach the join")
		}
		return hj
	})
	projected := drained(func() Iterator {
		hj := join()
		MarkTransient(hj)
		return NewProject(hj, items)
	})
	perRow := float64(wide-folded) / rows / float64(unsafe.Sizeof(Value{}))
	t.Logf("bytes: plain join %d, folded %d, projection over the recycled join %d; the fold saves %.2f values per row of the plain join",
		wide, folded, projected, perRow)
	if want := float64(4 - len(items)); perRow < 0.9*want || perRow > 1.1*want {
		t.Errorf("the folded join saves %.2f values per row of the plain join's arena, want %.0f (4 columns, %d items)", perRow, want, len(items))
	}
	if projected-folded < DefaultBatchSize*4*int64(unsafe.Sizeof(Value{}))/2 {
		t.Errorf("a projection over the join allocates %d B, the folded join %d B: the fold should save the join's arena", projected, folded)
	}
}
