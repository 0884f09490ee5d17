package planner

// Test helpers for running under a zero-limits session — the engine's
// only ungoverned configuration (there is no nil session). Each run gets
// its own session, closed when the run returns, so its statistics
// observations reach the adaptive store before the test inspects it.

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/relalg"
	"repro/internal/sqlparse"
)

var bg = context.Background()

func ungoverned(ctx context.Context, ex *Executor, run func(*Session) (*relalg.Relation, error)) (*relalg.Relation, error) {
	sess := ex.NewSession(ctx, Limits{})
	defer sess.Close()
	return run(sess)
}

func execute(ctx context.Context, ex *Executor, stmt sqlparse.Statement) (*relalg.Relation, error) {
	return ungoverned(ctx, ex, func(s *Session) (*relalg.Relation, error) { return ex.ExecuteSession(s, stmt) })
}

func executeMediation(ctx context.Context, ex *Executor, med *core.Mediation) (*relalg.Relation, error) {
	return ungoverned(ctx, ex, func(s *Session) (*relalg.Relation, error) { return ex.ExecuteMediationSession(s, med) })
}

func runPlan(ex *Executor, plan *BranchPlan) (*relalg.Relation, error) {
	return ungoverned(bg, ex, func(s *Session) (*relalg.Relation, error) { return ex.RunSession(s, plan) })
}

// zeroSession opens a zero-limits session that lives as long as the test.
func zeroSession(t testing.TB, ex *Executor) *Session {
	sess := ex.NewSession(bg, Limits{})
	t.Cleanup(func() { sess.Close() })
	return sess
}
