package planner

// EXPLAIN ANALYZE support: plan a SELECT block, execute it with actual
// counters wired through the pipeline, and hand back the analyzed plan
// for rendering. coin.System.ExplainAnalyze composes this per mediation
// branch.

import (
	"repro/internal/relalg"
	"repro/internal/sqlparse"
)

// AnalyzeSelect plans one SELECT block, executes it under sess with
// per-step actual counters attached, and returns the analyzed plan —
// BranchPlan.Explain then renders estimated-vs-actual rows, queries and
// cost per step. The block runs whole, as selectStream plans it, its
// grouping and the rest of its tail included; the tail adds no source
// communication. The executed answer is discarded: ANALYZE is about the
// plan, and the observed cardinalities still feed the adaptive
// statistics through the session as in any run.
func (e *Executor) AnalyzeSelect(sess *Session, sel *sqlparse.Select) (*BranchPlan, error) {
	plan, err := e.PlanCtx(sess.Context(), sel)
	if err != nil {
		return nil, err
	}
	plan.EnableAnalyze()
	it, err := e.BuildStream(sess, plan)
	if err != nil {
		return nil, err
	}
	// The session's governors all apply to the analyzed run; MaxRows is
	// applied here as a final LIMIT (the service layers do the same for
	// ordinary queries), so an analyzed branch stops pulling early too.
	if max := sess.Limits().MaxRows; max > 0 {
		it = relalg.NewLimit(it, max)
	}
	if _, err := relalg.Collect(sess.Context(), it, ""); err != nil {
		return nil, err
	}
	return plan, nil
}
