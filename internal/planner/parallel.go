package planner

// The parallelize pass: a post-optimization annotation step that decides
// where a plan may run parts of itself concurrently. It runs AFTER the
// join-order enumerators and never reorders, re-prices against a
// different order, or changes what a step fetches — parallelism is an
// execution property layered onto the chosen order, so the parallelism
// knob can move without the answer (or the access order) moving with it.
// With an effective parallelism of 1 the pass returns without touching
// the plan at all, which keeps serial plans byte-identical to the
// pre-exchange planner (golden baselines included).
//
// Two placements are annotated; every keyed join runs as the serial
// relalg.HashJoinIter whatever the knob says:
//
//   - step.ScanParts: an independent scan step fans out into partitioned
//     range streams when the source advertises Capabilities.Partitions
//     and the cost model says the transfer term dominates the extra
//     per-query admissions the fan-out costs.
//   - plan.Parallelism: the bound the compiled pipeline hands to the
//     partitioned sort (the order-preserving merge exchange of ORDER
//     BY). It is an upper bound: relalg runs fewer workers — one, for
//     small inputs — when a worker would get fewer rows than its
//     measured floor (relalg's minRowsPerWorker), so EXPLAIN's merge[n]
//     names the bound, not the worker count.
//
// Admission invariant: a partitioned scan holds ScanParts dispatcher
// slots at once (see access.go), so the pass clamps ScanParts to the
// per-source pools — the source's own concurrency cap and the session's
// MaxConcurrentPerSource — leaving at least the whole pool reachable by
// a single reservation and never a reservation larger than a pool, which
// is what keeps the up-front K-slot reservation deadlock-free.

// Profitability floors of the parallelize pass. Fanning a scan out costs
// K-1 extra source queries and a reservation of K admission slots, which
// only pays off when enough rows flow.
const (
	// parallelScanMinRows is the minimum estimated transfer of a scan
	// step before a partitioned fan-out is considered.
	parallelScanMinRows = 2048
	// parallelScanGain requires the scan's transfer cost to exceed the
	// fan-out's added per-query cost by this factor before fanning out.
	parallelScanGain = 2.0
)

// parallelism resolves the effective worker bound for a run: the
// session's MaxParallelism when set, else the executor's
// DefaultParallelism, else 1 (serial).
func (e *Executor) parallelism(sess *Session) int {
	if sess.limits.MaxParallelism > 0 {
		return sess.limits.MaxParallelism
	}
	if e.DefaultParallelism > 1 {
		return e.DefaultParallelism
	}
	return 1
}

// ParallelizePlan annotates plan for execution under sess's effective
// parallelism. Idempotent: it recomputes every annotation from the
// serial estimates, so re-planning or re-annotating cannot compound.
func (e *Executor) ParallelizePlan(plan *BranchPlan, sess *Session) {
	par := e.parallelism(sess)
	plan.Parallelism = 0
	for i := range plan.Steps {
		plan.Steps[i].ScanParts = 0
	}
	if par <= 1 {
		return
	}
	plan.Parallelism = par
	for i := range plan.Steps {
		step := &plan.Steps[i]
		// Scan fan-out: independent scans only — a bind join's probes are
		// already parallelized by fetchAll, and partitioning is a property
		// of whole-relation range scans.
		if len(step.BindJoins) == 0 {
			step.ScanParts = e.scanFanOut(sess, step, par)
		}
	}
}

// scanFanOut decides the partitioned fan-out of one independent scan
// step: 0 (serial) unless the source can partition, the pools can admit
// the reservation, and the cost model says the transfer term dominates
// the added per-query cost — the fan-out trades parts-1 extra per-query
// admissions for concurrent transfer, so it only pays when
// PerTuple·EstRows clears that surcharge with margin. The step keeps the
// enumerator's serial estimates (the pass must stay idempotent and the
// plan total consistent); EXPLAIN ANALYZE shows the actual parts queries.
func (e *Executor) scanFanOut(sess *Session, step *PlanStep, par int) int {
	w, err := e.Catalog.WrapperFor(step.Relation)
	if err != nil {
		return 0
	}
	caps, err := w.Capabilities(step.Relation)
	if err != nil {
		return 0
	}
	parts := min(par, caps.Partitions)
	// Clamp to the admission pools the reservation must fit inside: the
	// source's own dispatcher and the session's per-source allowance.
	if c := w.Cost().MaxConcurrent; c > 0 {
		parts = min(parts, c)
	} else {
		parts = min(parts, DefaultMaxConcurrentPerSource)
	}
	if sess.limits.MaxConcurrentPerSource > 0 && parts > sess.limits.MaxConcurrentPerSource {
		parts = sess.limits.MaxConcurrentPerSource
	}
	if parts <= 1 {
		return 0
	}
	if step.EstRows < parallelScanMinRows {
		return 0
	}
	cost := step.SourceCost
	extraQueries := float64(parts - 1)
	if cost.PerTuple*step.EstRows <= parallelScanGain*extraQueries*cost.PerQuery {
		return 0
	}
	return parts
}
