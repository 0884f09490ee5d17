package planner

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/relalg"
	"repro/internal/store"
	"repro/internal/wrapper"
)

func newRelationalFor(t *testing.T, dbs map[string]*store.DB, name string) wrapper.Wrapper {
	t.Helper()
	db, ok := dbs[name]
	if !ok {
		t.Fatalf("fixture has no database %s", name)
	}
	return wrapper.NewRelational(db)
}

// TestParallelBranchesMatchSequential: parallel branch execution returns
// exactly the sequential answer, on the paper query and on a scaled
// workload.
func TestParallelBranchesMatchSequential(t *testing.T) {
	med, err := core.New(fixture.Registry()).MediateSQL(fixture.PaperQ1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	cat, _ := paperCatalog()
	seq, err := executeMediation(bg, NewExecutor(cat), med)
	if err != nil {
		t.Fatal(err)
	}
	par := NewExecutor(cat)
	par.Parallel = true
	got, err := executeMediation(bg, par, med)
	if err != nil {
		t.Fatal(err)
	}
	if !relalg.SameTuples(seq, got) {
		t.Errorf("parallel != sequential:\n%s\nvs\n%s", seq, got)
	}
	if par.Stats().BranchesRun != 3 {
		t.Errorf("branches run = %d", par.Stats().BranchesRun)
	}
}

// TestParallelErrorPropagation: a failing branch fails the whole query.
func TestParallelErrorPropagation(t *testing.T) {
	med, err := core.New(fixture.Registry()).MediateSQL(fixture.PaperQ1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	// Catalog missing r3 entirely: the conversion branches cannot plan.
	cat := NewCatalog()
	dbs := fixture.Databases()
	cat.MustAddSource(newRelationalFor(t, dbs, "source1"))
	cat.MustAddSource(newRelationalFor(t, dbs, "source2"))
	ex := NewExecutor(cat)
	ex.Parallel = true
	if _, err := executeMediation(bg, ex, med); err == nil {
		t.Error("missing source not reported under parallel execution")
	}
}
