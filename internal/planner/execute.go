package planner

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/relalg"
	"repro/internal/sqlparse"
	"repro/internal/wrapper"
)

// Executor plans and runs statements over the catalog's sources, doing
// all cross-source work locally. Execution is streaming: plans compile to
// pull-based iterator trees (see stream.go), so tuples flow through a
// branch in batches and early exits stop pulling from the sources.
// Every run is governed by a query Session (see session.go) carrying
// cancellation, deadline and resource limits; a run without governors is
// a session with zero Limits.
type Executor struct {
	Catalog *Catalog
	// DisablePushdown keeps every non-required filter local — the E9
	// pushdown ablation.
	DisablePushdown bool
	// ForceNestedLoop disables hash joins — the E9b join ablation.
	ForceNestedLoop bool
	// DisableBatching keeps bind joins on one query per feeder value even
	// against IN-capable sources — the batching ablation.
	DisableBatching bool
	// DefaultParallelism is a no-op kept for bench/ until a [benchmark]
	// PR drops it: every pipeline runs serially whatever it says.
	DefaultParallelism int
	// DisableReorder keeps the legacy greedy access ordering instead of
	// the dynamic-programming enumerator — the join-order ablation.
	DisableReorder bool

	// Retry bounds per-operation retries of faulted source accesses
	// (retry.go). The zero value keeps the pre-retry semantics: one
	// attempt per operation.
	Retry RetryPolicy
	// Breaker configures the per-source circuit breakers (breaker.go);
	// the zero value uses the defaults.
	Breaker BreakerPolicy

	// PerQueryCostHook, when non-nil, rescales the cost model's per-query
	// price of one access against the named source. It is a test seam for
	// plan-regression harnesses (internal/golden): flipping a cost
	// constant through it seeds a deliberate, deterministic plan change
	// that the golden semantic diff must catch. Production code leaves it
	// nil.
	PerQueryCostHook func(source string, perQuery float64) float64

	// AdaptiveStats is the executor's feedback store: completed source
	// accesses record their observed cardinalities and latencies here
	// (via the session, at close), and subsequent plans price with them
	// instead of the wrappers' static guesses. NewExecutor installs one;
	// set nil to plan from static estimates only (the learning ablation).
	AdaptiveStats *StatsStore

	mu    sync.Mutex
	stats ExecStats
	// disp holds the per-source dispatchers (admission pools) of the
	// source access layer; see access.go.
	disp dispatcherPool
}

// ExecStats counts the communication work of executed queries. Under
// streaming execution TuplesTransferred counts tuples actually pulled
// across the wrapper boundary, so a LIMIT n query over a large source
// reports O(n), not the source size — and a canceled query's counters
// stop growing as soon as its pipelines notice the cancellation.
type ExecStats struct {
	// SourceQueries counts queries that actually reached a source.
	SourceQueries     int
	TuplesTransferred int
	BranchesRun       int
	// CacheHits counts bind-join probes and hash-join build sides answered
	// from the session cache (including single-flight joins of an
	// in-flight identical one) without contacting the source; they are
	// deliberately not part of SourceQueries, which stays a faithful
	// communication count.
	CacheHits int
	// Retries counts source-operation retries actually performed (each
	// one a fresh attempt after a backoff sleep); the first attempt of an
	// operation is not a retry.
	Retries int
	// BreakerTrips counts circuit-breaker openings: a closed breaker
	// passing its failure threshold, or a half-open probe failing back to
	// open.
	BreakerTrips int
	// BranchesFailed counts mediation branches dropped by partial-results
	// degradation (Limits.PartialResults); each dropped branch also
	// produces a Warning on the session.
	BranchesFailed int
}

// NewExecutor creates an executor over a catalog, with an empty adaptive
// statistics store ready to learn from executions.
func NewExecutor(cat *Catalog) *Executor {
	return &Executor{Catalog: cat, AdaptiveStats: NewStatsStore()}
}

// ParallelizePlan is a no-op kept for bench/ until a [benchmark] PR
// drops it: there is no intra-query parallelism left to annotate.
func (e *Executor) ParallelizePlan(*BranchPlan, *Session) {}

// Stats snapshots the execution counters.
func (e *Executor) Stats() ExecStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

func (e *Executor) countQuery(tuples int) {
	e.mu.Lock()
	e.stats.SourceQueries++
	e.stats.TuplesTransferred += tuples
	e.mu.Unlock()
}

// ExecuteSession plans and runs a statement under sess. UNION combines
// with set semantics unless the Union node says ALL.
func (e *Executor) ExecuteSession(sess *Session, stmt sqlparse.Statement) (*relalg.Relation, error) {
	it, err := e.StatementStream(sess, stmt)
	if err != nil {
		return nil, err
	}
	return relalg.Collect(sess.Context(), it, "")
}

// fetchBindStep retrieves one relation through its bind joins and
// applies the engine-local filters the source could not. The distinct
// combinations of feeding values are collected from the materialized
// intermediate result (combinations containing NULL or NaN are skipped
// outright: a `col = NULL` probe can never join under SQL semantics, and
// a Web form would match the rendered "NULL" literally); against an InList-capable
// source they are batched into ⌈N/BatchSize⌉ IN-list queries, otherwise
// each becomes one equality probe. All resulting queries flow through the
// source access layer — concurrent up to the per-source dispatcher
// bounds, deduplicated by the session result cache, cancelled as a group
// on the first failure — and the combined answer is identical, tuple for
// tuple and in order, to issuing the probes serially per value.
func (e *Executor) fetchBindStep(ctx context.Context, sess *Session, step *PlanStep, act *StepActuals, cur *relalg.Relation) (*relalg.Relation, error) {
	w, err := e.Catalog.WrapperFor(step.Relation)
	if err != nil {
		return nil, err
	}
	feedIdx := make([]int, len(step.BindJoins))
	for i, bp := range step.BindJoins {
		idx := cur.Schema.Index(bp.FromQualified)
		if idx < 0 {
			return nil, fmt.Errorf("planner: bind join feeder %s missing from intermediate result", bp.FromQualified)
		}
		feedIdx[i] = idx
	}
	schema, err := w.Schema(step.Relation)
	if err != nil {
		return nil, err
	}

	// Distinct joinable feeder combinations, in first-appearance order.
	var keys relalg.JoinKeys
	var combos []relalg.Tuple
	for _, t := range cur.Tuples {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if _, added := keys.Add(t, feedIdx); !added {
			continue
		}
		vals := make(relalg.Tuple, len(feedIdx))
		for i, fi := range feedIdx {
			vals[i] = t[fi]
		}
		combos = append(combos, vals)
	}

	raw := relalg.NewRelation(step.Relation, schema)
	if len(combos) > 0 {
		// The planner recorded its batching decision on the step; derive
		// it only for hand-built plans, so Explain always reports what
		// execution does.
		batch := step.BatchSize
		if batch <= 0 {
			caps, err := w.Capabilities(step.Relation)
			if err != nil {
				return nil, err
			}
			batch = e.batchSizeFor(caps, len(step.BindJoins))
		}
		queries := len(combos)
		if batch > 1 {
			queries = (len(combos) + batch - 1) / batch
		}
		var parts []*relalg.Relation
		if batch > 1 {
			parts, err = e.fetchBindBatched(ctx, sess, w, step, schema, combos, batch)
		} else {
			parts, err = e.fetchBindProbes(ctx, sess, w, step, combos)
		}
		if err != nil {
			return nil, err
		}
		for _, p := range parts {
			raw.Tuples = append(raw.Tuples, p.Tuples...)
		}
		if act != nil {
			act.Queries.Add(int64(queries))
			act.Rows.Add(int64(len(raw.Tuples)))
		}
	}

	rel := raw.Qualify(step.Binding)
	if len(step.Local) > 0 {
		qualified := make([]wrapper.Filter, len(step.Local))
		for i, f := range step.Local {
			qualified[i] = wrapper.Filter{Column: step.Binding + "." + f.Column, Op: f.Op, Value: f.Value}
		}
		if rel, err = wrapper.ApplyFilters(rel, qualified); err != nil {
			return nil, err
		}
	}
	if len(step.LocalPreds) > 0 {
		kept := relalg.NewFilter(relalg.NewScan(rel), sqlparse.AndAll(step.LocalPreds))
		if rel, err = relalg.Collect(ctx, kept, rel.Name); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// fetchBindProbes issues one equality probe per feeder combination,
// concurrently through the source access layer, returning the answers in
// combination order (so the combined result matches serial probing).
func (e *Executor) fetchBindProbes(ctx context.Context, sess *Session, w wrapper.Wrapper, step *PlanStep, combos []relalg.Tuple) ([]*relalg.Relation, error) {
	queries := make([]wrapper.SourceQuery, len(combos))
	for i, vals := range combos {
		filters := append([]wrapper.Filter(nil), step.Pushed...)
		for j, bp := range step.BindJoins {
			filters = append(filters, wrapper.Filter{Column: bp.Column, Op: "=", Value: vals[j]})
		}
		queries[i] = wrapper.SourceQuery{Relation: step.Relation, Filters: filters}
	}
	return e.fetchAll(ctx, sess, w, queries)
}

// fetchBindBatched issues one IN-list query per batch of feeder values
// (single-column bind joins only — an IN list expresses one column), then
// regroups every batch answer by feeder value so the combined result is
// identical, tuple for tuple, to the per-value probe path: sources return
// a batch in their own order, not grouped by probe value.
func (e *Executor) fetchBindBatched(ctx context.Context, sess *Session, w wrapper.Wrapper, step *PlanStep, schema relalg.Schema, combos []relalg.Tuple, batch int) ([]*relalg.Relation, error) {
	bp := step.BindJoins[0]
	colIdx := schema.Index(bp.Column)
	if colIdx < 0 {
		return nil, fmt.Errorf("planner: bind column %s missing from %s schema", bp.Column, step.Relation)
	}
	var queries []wrapper.SourceQuery
	var groups [][]relalg.Value
	for start := 0; start < len(combos); start += batch {
		end := min(start+batch, len(combos))
		vals := make([]relalg.Value, 0, end-start)
		for _, c := range combos[start:end] {
			vals = append(vals, c[0])
		}
		filters := append([]wrapper.Filter(nil), step.Pushed...)
		if len(vals) == 1 {
			filters = append(filters, wrapper.Filter{Column: bp.Column, Op: "=", Value: vals[0]})
		} else {
			filters = append(filters, wrapper.Filter{Column: bp.Column, Op: wrapper.OpIn, Values: vals})
		}
		queries = append(queries, wrapper.SourceQuery{Relation: step.Relation, Filters: filters})
		groups = append(groups, vals)
	}
	parts, err := e.fetchAll(ctx, sess, w, queries)
	if err != nil {
		return nil, err
	}
	out := make([]*relalg.Relation, 0, len(combos))
	cols, probe := []int{colIdx}, []int{0}
	for qi, part := range parts {
		vals := groups[qi]
		if len(vals) == 1 {
			out = append(out, part)
			continue
		}
		// The values are distinct and joinable, so they number 0..n-1 in
		// list order; each answer row then files under its value's id.
		var keys relalg.JoinKeys
		for _, v := range vals {
			keys.Add(relalg.Tuple{v}, probe)
		}
		rows := make([][]relalg.Tuple, len(vals))
		for _, t := range part.Tuples {
			if id, _ := keys.Add(t, cols); id >= 0 && id < len(vals) {
				rows[id] = append(rows[id], t)
			}
		}
		for _, r := range rows {
			out = append(out, &relalg.Relation{Name: part.Name, Schema: part.Schema, Tuples: r})
		}
	}
	return out, nil
}

func colRefFromQualified(q string) *sqlparse.ColRef {
	for i := 0; i < len(q); i++ {
		if q[i] == '.' {
			return &sqlparse.ColRef{Table: q[:i], Column: q[i+1:]}
		}
	}
	return &sqlparse.ColRef{Column: q}
}

// projectItems expands the SELECT list against the joined schema.
func projectItems(items []sqlparse.SelectItem, schema relalg.Schema) ([]relalg.ProjectItem, error) {
	var out []relalg.ProjectItem
	used := map[string]bool{}
	name := func(base string) string {
		if !used[base] {
			used[base] = true
			return base
		}
		for i := 2; ; i++ {
			cand := base + "_" + strconv.Itoa(i)
			if !used[cand] {
				used[cand] = true
				return cand
			}
		}
	}
	for i, it := range items {
		if it.Star {
			for _, col := range schema.Columns {
				if it.StarTable != "" && !hasPrefix(col.Name, it.StarTable+".") {
					continue
				}
				out = append(out, relalg.ProjectItem{
					Name: name(plainName(col.Name)),
					Expr: colRefFromQualified(col.Name),
				})
			}
			continue
		}
		n := it.Alias
		if n == "" {
			if c, ok := it.Expr.(*sqlparse.ColRef); ok {
				n = c.Column
			} else {
				n = "col" + strconv.Itoa(i+1)
			}
		}
		out = append(out, relalg.ProjectItem{Name: name(n), Expr: it.Expr})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("planner: empty projection")
	}
	return out, nil
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

func plainName(qualified string) string {
	for i := len(qualified) - 1; i >= 0; i-- {
		if qualified[i] == '.' {
			return qualified[i+1:]
		}
	}
	return qualified
}

func hasAggregates(sel *sqlparse.Select) bool {
	if len(sel.GroupBy) > 0 {
		return true
	}
	for _, it := range sel.Items {
		if !it.Star && relalg.IsAggregate(it.Expr) {
			return true
		}
	}
	if sel.Having != nil {
		return true
	}
	return false
}

func anyAggItems(items []sqlparse.SelectItem) bool {
	for _, it := range items {
		if !it.Star && relalg.IsAggregate(it.Expr) {
			return true
		}
	}
	return false
}
