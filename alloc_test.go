// Alloc-regression gate for the mediated execution path: pins the
// allocation budget of the paper-shaped E9 query so a later change to
// the batch pipeline cannot silently fall back to per-tuple allocation.
// The budget carries ~2x headroom over the measured value — it gates
// order-of-magnitude regressions, not single-alloc drift (the pre-batch
// engine spent ~40 allocations per source row on the same query).
package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/planner"
)

func TestE9MediatedJoinAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	med, err := core.New(fixture.Registry()).MediateSQL(fixture.PaperQ1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	cat, w := scaledCatalog(1000, 42)
	want := w.Expected.Len()
	run := func() {
		res, err := executeMediation(planner.NewExecutor(cat), med)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != want {
			t.Fatalf("answers = %d, want %d", res.Len(), want)
		}
	}
	run() // warm caches outside the measured runs
	allocs := testing.AllocsPerRun(5, run)
	t.Logf("E9 mediated join (companies=1000): %.0f allocs/query", allocs)
	const budget = 2700 // measured ~1330; ~2x headroom
	if allocs > budget {
		t.Errorf("mediated E9 query allocates %.0f/query, budget %d", allocs, budget)
	}
}
