package planner

// Test helpers for running under a zero-limits session — the engine's
// only ungoverned configuration (there is no nil session). Each run gets
// its own session, closed when the run returns, so its statistics
// observations reach the adaptive store before the test inspects it.

import (
	"context"
	"slices"
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
	return ungoverned(ctx, ex, func(s *Session) (*relalg.Relation, error) { return executeMediationSession(ex, s, med) })
}

func runPlan(ex *Executor, plan *BranchPlan) (*relalg.Relation, error) {
	return ungoverned(bg, ex, func(s *Session) (*relalg.Relation, error) { return runSession(ex, s, plan) })
}

// executeMediationSession drains MediationStream under sess.
func executeMediationSession(ex *Executor, sess *Session, med *core.Mediation) (*relalg.Relation, error) {
	it, err := ex.MediationStream(sess, med)
	if err != nil {
		return nil, err
	}
	return relalg.Collect(sess.Context(), it, "")
}

// runSession drains a prepared plan's BuildStream under sess.
func runSession(ex *Executor, sess *Session, plan *BranchPlan) (*relalg.Relation, error) {
	it, err := ex.BuildStream(sess, plan)
	if err != nil {
		return nil, err
	}
	return relalg.Collect(sess.Context(), it, "")
}

// sameTuples reports bag equality of two relations' tuples, ignoring
// order.
func sameTuples(a, b *relalg.Relation) bool {
	return slices.Equal(tupleBag(a), tupleBag(b))
}

// tupleBag is r's tuples' full keys, sorted.
func tupleBag(r *relalg.Relation) []string {
	keys := make([]string, len(r.Tuples))
	for i, t := range r.Tuples {
		keys[i] = t.FullKey()
	}
	slices.Sort(keys)
	return keys
}

// zeroSession opens a zero-limits session that lives as long as the test.
func zeroSession(t testing.TB, ex *Executor) *Session {
	sess := ex.NewSession(bg, Limits{})
	t.Cleanup(func() { sess.Close() })
	return sess
}
