package repro_test

// The root benchmarks and alloc gates run the engine under a real
// zero-limits session per run — the configuration production takes; the
// engine has no session-less form.

import (
	"context"

	"repro/internal/core"
	"repro/internal/planner"
	"repro/internal/relalg"
	"repro/internal/sqlparse"
)

func execute(ex *planner.Executor, stmt sqlparse.Statement) (*relalg.Relation, error) {
	sess := ex.NewSession(context.Background(), planner.Limits{})
	defer sess.Close()
	return ex.ExecuteSession(sess, stmt)
}

func executeMediation(ex *planner.Executor, med *core.Mediation) (*relalg.Relation, error) {
	sess := ex.NewSession(context.Background(), planner.Limits{})
	defer sess.Close()
	it, err := ex.MediationStream(sess, med)
	if err != nil {
		return nil, err
	}
	return relalg.Collect(sess.Context(), it, "")
}
