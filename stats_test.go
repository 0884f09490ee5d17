package repro_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/planner"
)

// TestWarmScanEstimatesAreExact: after three runs of the mediated Q1 at
// the scale_stream workload's size, the adaptive statistics know every
// independent scan's cardinality exactly, so EXPLAIN ANALYZE of each
// branch reads est_rows == act_rows on every scan step that queried its
// source. (A step served from the session's shared build shows
// act_queries=0 and is skipped.) The executor is configured as the
// benchmark host configures it; DefaultParallelism is a no-op, so every
// scan is one source stream whose count is the whole relation's.
func TestWarmScanEstimatesAreExact(t *testing.T) {
	med, err := core.New(fixture.Registry()).MediateSQL(fixture.PaperQ1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	cat, _ := scaledCatalog(10000, 42)
	ex := planner.NewExecutor(cat)
	ex.DefaultParallelism = 2
	for i := 0; i < 3; i++ {
		if _, err := executeMediation(ex, med); err != nil {
			t.Fatal(err)
		}
	}
	sess := ex.NewSession(context.Background(), planner.Limits{})
	defer sess.Close()
	checked := 0
	for b, br := range med.Branches {
		plan, err := ex.AnalyzeSelect(sess, br)
		if err != nil {
			t.Fatal(err)
		}
		for i, step := range plan.Steps {
			act := &plan.Actuals.Steps[i]
			if len(step.BindJoins) > 0 || act.Queries.Load() == 0 {
				continue
			}
			checked++
			if rows := act.Rows.Load(); step.EstRows != float64(rows) {
				t.Errorf("branch %d step %d (%s): est_rows=%.0f | act_rows=%d\n%s", b+1, i+1, step.Relation, step.EstRows, rows, plan.Explain())
			}
		}
	}
	if checked == 0 {
		t.Fatal("no scan step queried its source")
	}
}
