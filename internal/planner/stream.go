package planner

// This file compiles BranchPlans into pull-based iterator trees (the
// Volcano model of internal/relalg). Building a stream is free of side
// effects: no source is contacted and no tuple moves until the consumer
// Opens the tree and pulls, and no scan leaf contacts its source before it
// is pulled. That is what makes early exit work — a LIMIT stops pulling as
// soon as it is satisfied, so upstream scans stop transferring tuples from
// their sources, and mediation branches under it that are never reached
// never run at all. A mediated union emits its branches in order; it opens
// them early, all at its own Open, over slow sources unless a LIMIT sits
// above it (MediationStream).
//
// Every tree is compiled under a *Session: the session's
// context is passed down at Open and bounds the whole run — leaves check
// it per tuple, deferred bind-join fetches check it per source query, and
// breaker drains check it per buffered tuple — while its resource
// governor (max tuples transferred) is charged at the same points.
// Canceling the session context therefore stops source fetches
// mid-stream, not just between operators.
//
// Only the pipeline breakers materialize, and they buffer in memory
// (relalg.Collect; there is no disk spill): Sort buffers, the build side
// of a join (the nested loop's inner side included), and the feeding side
// of a bind join (its distinct binding values must all be known
// before the dependent source can be queried). GroupBy streams its input
// and keeps one first row and the accumulators per group.

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/relalg"
	"repro/internal/sqlparse"
	"repro/internal/wrapper"
)

// sourceScanIter is the leaf of every pipeline: a wrapper fetch, pulled
// tuple by tuple through the wrapper's chunked-fetch protocol
// (wrapper.QueryStream). It counts one source query when its stream opens
// and the tuples actually pulled — accumulated locally and flushed to
// ExecStats under one lock at Close, so concurrent scans do not contend on
// the executor mutex per tuple. It retains the Open context and charges
// the session's transfer governor, so cancellation and the max-tuples
// limit both take effect mid-chunk.
//
// The scan is admitted through the source access layer on its first Next:
// it acquires a per-source dispatcher slot (blocking while the source is
// saturated) and holds it until the stream is exhausted, fails, or the
// scan closes — a streaming fetch is in flight against the source for
// exactly that window. Open only records the context, so an opened but
// unpulled scan holds no slot and has sent nothing to its source — what
// lets a mediated union open its branches early.
//
// Faults are handled through the retry machinery (retry.go). A failed
// stream open retries whole (acquire + stream open per attempt, no slot
// held through a backoff). A stream that dies AFTER delivering tuples is
// harder: those tuples are already downstream and cannot be recalled, so
// a replacement stream may only be used when its replay of them can be
// deduplicated away. The scan tracks the multiset of delivered tuples
// (bounded by maxReplayTracked) and, on a retryable mid-stream fault,
// re-opens the source query and suppresses previously-delivered tuples by
// multiset key — consulted for every tuple, not as a prefix, since the
// replacement may answer in a different order. This is correct exactly
// when the source's answer multiset is stable across the retry; if the
// replacement stream ends while suppressed tuples remain unmatched, the
// answer changed mid-retry and the scan fails rather than emit a multiset
// that no single consistent answer contains. Suppressed replays still
// count as pulled and are charged to the transfer governor — they did
// cross the wire again.
type sourceScanIter struct {
	e         *Executor
	sess      *Session
	w         wrapper.Wrapper
	schema    relalg.Schema
	act       *StepActuals // non-nil under EXPLAIN ANALYZE
	est       int          // planner's transfer estimate (presize hint)
	ctx       context.Context
	started   bool
	q         wrapper.SourceQuery
	stream    wrapper.TupleStream
	batch     wrapper.BatchStream // non-nil when the stream block-fetches
	release   func()
	pulled    int
	exhausted bool
	one       [1]relalg.Tuple // degenerate batch for per-tuple streams
	out       []relalg.Tuple  // reused buffer for replay-filtered batches
	pend      error           // error held back behind an allowed prefix

	// mid-stream recovery state (see the type comment)
	emitted    []relalg.Tuple // delivered-downstream tuples, in order
	skip       map[string]int // replay suppression for the current re-opened stream
	delivered  int            // tuples handed downstream
	trackOK    bool           // emitted is complete (under the bound)
	recovered  bool           // at least one mid-stream re-open happened
	recoveries int            // consecutive recoveries without new progress
}

func (s *sourceScanIter) Schema() relalg.Schema { return s.schema }

// RowCountHint implements relalg.RowCountHint with the plan step's
// transfer estimate, so drains that materialize the scan (hash-join
// build sides) presize instead of regrowing. After the adaptive
// statistics warm up, the estimate is the learned exact cardinality.
func (s *sourceScanIter) RowCountHint() int { return s.est }

func (s *sourceScanIter) Open(ctx context.Context) error { s.ctx = ctx; return nil }

// maxReplayTracked bounds the delivered-tuple multiset a scan keeps for
// replay deduplication; past it, a mid-stream fault is no longer
// recoverable (the scan cannot prove a replacement stream clean).
const maxReplayTracked = 4096

// openStream acquires admission and opens the source stream under the
// retry/breaker machinery, counting the source query once it is open;
// shared by the first Next and mid-stream recovery.
func (s *sourceScanIter) openStream() error {
	err := s.e.withRetry(s.ctx, s.sess, s.w, func() error {
		release, err := s.e.acquireSource(s.ctx, s.sess, s.w)
		if err != nil {
			return err
		}
		start := time.Now()
		stream, err := wrapper.QueryStream(s.ctx, s.w, s.q)
		if err != nil {
			release()
			return err
		}
		s.sess.bufferObs(statObs{source: s.w.Source(), latency: time.Since(start)})
		s.stream = stream
		// Block fetch is an optional stream capability: per-tuple streams
		// (gated test wrappers, fault injectors) fall back to degenerate
		// one-row batches so their per-tuple semantics survive unchanged.
		s.batch, _ = stream.(wrapper.BatchStream)
		s.release = release
		return nil
	})
	if err != nil {
		return err
	}
	s.e.mu.Lock()
	s.e.stats.SourceQueries++
	s.e.mu.Unlock()
	if s.act != nil {
		s.act.Queries.Add(1)
	}
	return nil
}

// freeSlot returns the scan's dispatcher slot; idempotent.
func (s *sourceScanIter) freeSlot() {
	if s.release != nil {
		s.release()
		s.release = nil
	}
}

// track records a block of tuples as delivered downstream (for replay
// dedup) and resets the consecutive-recovery counter: the stream made
// progress.
func (s *sourceScanIter) track(rows []relalg.Tuple) {
	s.recoveries = 0
	if !s.trackOK {
		return
	}
	if len(s.emitted)+len(rows) > maxReplayTracked {
		s.trackOK = false
		s.emitted = nil
		return
	}
	// A reference append, not a hash: the per-tuple cost of an armed but
	// idle retry policy stays negligible. Keys are computed only when a
	// recovery actually needs the suppression multiset.
	s.emitted = append(s.emitted, rows...)
}

// fetchRows pulls one block from the source stream: natively when the
// stream block-fetches, else a degenerate one-row batch (so per-tuple
// gating and fault-injection wrappers keep their exact semantics).
func (s *sourceScanIter) fetchRows(req int) ([]relalg.Tuple, error) {
	if s.batch != nil {
		return s.batch.NextBatch(req)
	}
	t, ok, err := s.stream.Next()
	if err != nil || !ok {
		return nil, err
	}
	s.one[0] = t
	return s.one[:1], nil
}

func (s *sourceScanIter) Next(max int) (relalg.Batch, error) {
	if !s.started {
		s.started, s.trackOK = true, s.e.Retry.enabled()
		if err := s.openStream(); err != nil {
			return relalg.Batch{}, err
		}
	}
	if err := s.pend; err != nil {
		s.pend = nil
		s.freeSlot()
		return relalg.Batch{}, err
	}
	if max <= 0 {
		max = relalg.DefaultBatchSize
	}
	for {
		if s.stream == nil {
			return relalg.Batch{}, nil
		}
		if err := s.ctx.Err(); err != nil {
			s.freeSlot()
			return relalg.Batch{}, err
		}
		// Cap the request at the governor's remaining budget + 1: the
		// tuple that crosses the limit must still be pulled (that is what
		// proves the limit was crossed, as under per-tuple charging), but
		// the stream must not overshoot by a whole block.
		req := max
		if rem, capped := s.sess.tupleBudget(); capped && req > rem+1 {
			req = rem + 1
		}
		rows, err := s.fetchRows(req)
		if err != nil {
			if rerr := s.recover(err); rerr != nil {
				return relalg.Batch{}, rerr
			}
			continue
		}
		if len(rows) == 0 {
			if n := remaining(s.skip); n > 0 {
				// The replacement stream never replayed tuples the original
				// delivered: the answer multiset changed mid-retry, so no
				// single consistent answer contains what went downstream.
				s.freeSlot()
				return relalg.Batch{}, &SourceError{Source: s.w.Source(), Err: fmt.Errorf(
					"wrapper: replay after mid-stream retry is missing %d previously delivered tuple(s): source answer changed", n)}
			}
			if !s.recovered {
				// The source delivered its whole answer in one stream: the
				// observed cardinality is a fact worth learning. A stitched
				// (recovered) answer is not — replays were suppressed, so
				// pulled is not the relation's cardinality.
				s.exhausted = true
			}
			s.freeSlot()
			return relalg.Batch{}, nil
		}
		s.pulled += len(rows)
		if s.act != nil {
			s.act.Rows.Add(int64(len(rows)))
		}
		allowed, gerr := s.sess.chargeTupleBatch(len(rows))
		if gerr != nil {
			// Remainder accounting: the tuples that still fit go downstream
			// now; the governor error surfaces on the following call.
			if allowed <= 0 {
				s.freeSlot()
				return relalg.Batch{}, gerr
			}
			rows = rows[:allowed]
			s.pend = gerr
		}
		if len(s.skip) > 0 {
			// Replay suppression after a mid-stream recovery: drop tuples
			// already delivered downstream (they were still transferred —
			// charged above).
			kept := s.out[:0]
			for _, t := range rows {
				k := t.FullKey()
				if n := s.skip[k]; n > 0 {
					if n == 1 {
						delete(s.skip, k)
					} else {
						s.skip[k] = n - 1
					}
					continue
				}
				kept = append(kept, t)
			}
			s.out = kept
			rows = kept
		}
		if len(rows) == 0 {
			// The whole block was replay; pull again (or surface a held
			// governor error).
			if err := s.pend; err != nil {
				s.pend = nil
				s.freeSlot()
				return relalg.Batch{}, err
			}
			continue
		}
		s.track(rows)
		s.delivered += len(rows)
		return relalg.Batch{Rows: rows}, nil
	}
}

// remaining sums a replay-suppression multiset.
func remaining(m map[string]int) int {
	n := 0
	for _, c := range m {
		n += c
	}
	return n
}

// recover handles a mid-stream source fault: tear down the dead stream,
// feed the breaker, and — when the fault is retryable, the policy allows
// it, and any already-delivered tuples can be deduplicated on replay —
// re-open the source query. A nil return means s.stream is live again.
func (s *sourceScanIter) recover(orig error) error {
	s.stream.Close()
	s.stream = nil
	s.freeSlot()
	if s.ctx.Err() != nil {
		// The query died, the source did not.
		return orig
	}
	e := s.e
	// Not the half-open probe: the stream's open resolved its own
	// admission when it succeeded; this is a later, mid-stream fault.
	tripped := e.dispatcherFor(s.w).fail(e.Breaker, false)
	if tripped {
		e.mu.Lock()
		e.stats.BreakerTrips++
		e.mu.Unlock()
	}
	werr := &SourceError{Source: s.w.Source(), Err: orig}
	if tripped || !e.Retry.enabled() || !wrapper.Retryable(orig) {
		// A trip makes the re-open a guaranteed ErrSourceTripped
		// rejection: report the actual fault without burning a retry.
		return werr
	}
	if s.delivered > 0 && !s.trackOK {
		// Tuples are already downstream and the replay cannot be proven
		// clean (tracking overflowed): re-opening would risk duplicates.
		return werr
	}
	if s.recoveries >= e.Retry.attempts()-1 {
		return werr
	}
	if !s.sess.chargeRetry() {
		return werr
	}
	s.recoveries++
	hint, _ := wrapper.RetryAfter(orig)
	if !sleepCtx(s.ctx, e.Retry.backoff(s.recoveries, hint)) {
		return werr
	}
	e.mu.Lock()
	e.stats.Retries++
	e.mu.Unlock()
	if err := s.openStream(); err != nil {
		return err
	}
	s.recovered = true
	if s.delivered > 0 {
		s.skip = make(map[string]int, len(s.emitted))
		for _, t := range s.emitted {
			s.skip[t.FullKey()]++
		}
	} else {
		s.skip = nil
	}
	return nil
}

func (s *sourceScanIter) Close() error {
	// Flush transfer stats unconditionally: a scan torn down after a
	// terminal mid-stream fault (stream already nil) still moved tuples.
	s.e.mu.Lock()
	s.e.stats.TuplesTransferred += s.pulled
	s.e.mu.Unlock()
	if s.exhausted {
		s.sess.bufferObs(statObs{relation: s.q.Relation, filters: s.q.Filters, rows: s.pulled})
	}
	s.pulled = 0
	var err error
	if s.stream != nil {
		err = s.stream.Close()
		s.stream = nil
	}
	// Release the slot only after the stream is closed: the fetch stays
	// "in flight" against the source until its stream is torn down.
	s.freeSlot()
	return err
}

// sourceIter builds the scan pipeline for one independent (non-bind)
// step: chunked fetch with pushed filters, columns qualified with the
// step binding, then the engine-local filters the source could not
// evaluate.
func (e *Executor) sourceIter(sess *Session, step *PlanStep, act *StepActuals) (relalg.Iterator, error) {
	w, err := e.Catalog.WrapperFor(step.Relation)
	if err != nil {
		return nil, err
	}
	schema, err := w.Schema(step.Relation)
	if err != nil {
		return nil, err
	}
	q := wrapper.SourceQuery{Relation: step.Relation, Filters: step.Pushed}
	leaf := &sourceScanIter{e: e, sess: sess, w: w, schema: schema, act: act, est: int(step.EstRows), q: q}
	qualified := schema.Qualify(step.Binding)
	var it relalg.Iterator = relalg.NewRename(leaf, qualified)
	if len(step.Local) > 0 {
		filters := make([]wrapper.Filter, len(step.Local))
		for i, f := range step.Local {
			filters[i] = wrapper.Filter{Column: step.Binding + "." + f.Column, Op: f.Op, Value: f.Value}
		}
		match, err := wrapper.Matcher(qualified, filters)
		if err != nil {
			return nil, err
		}
		it = relalg.NewFilterFunc(it, match)
	}
	if len(step.LocalPreds) > 0 {
		it = relalg.NewFilter(it, sqlparse.AndAll(step.LocalPreds))
	}
	return it, nil
}

// joinIter combines the intermediate pipeline with a step's fetched
// input. The join always builds over the newly fetched side and streams
// the probe (intermediate) side: the intermediate is a stream of unknown
// cardinality, and hashing it would break the pipeline (and every early
// exit upstream) — so a step fetching a relation much larger than the
// intermediate holds the larger hash table; teaching the planner to flip
// sides from EstRows is future work. A keyless join (and every join under
// the ForceNestedLoop ablation, whose key equalities join the residual)
// is the nested loop: one chain of every fetched row, never shared.
// residual, the conjunction of the step's AfterPreds or nil, is applied
// to each joined pair, so a rejected pair never reaches the join's arena.
// share is the step's session-wide build memo (buildSharer), nil for a
// bind join, whose fetched side depends on the feeding rows.
func (e *Executor) joinIter(share relalg.BuildSharer, cur, next relalg.Iterator, keys []JoinKey, binding string, residual sqlparse.Expr) (relalg.Iterator, error) {
	var aKeys, bKeys []string
	var eqs []sqlparse.Expr // the keys as the residual's leading conjuncts, under ForceNestedLoop
	for _, k := range keys {
		a, b := k.CurQualified, binding+"."+k.NewColumn
		if e.ForceNestedLoop {
			eqs = append(eqs, sqlparse.Bin("=", colRefFromQualified(a), colRefFromQualified(b)))
		} else {
			aKeys, bKeys = append(aKeys, a), append(bKeys, b)
		}
	}
	if eqs != nil {
		residual = sqlparse.AndAll(append(eqs, residual))
	}
	hj, err := relalg.NewHashJoin(cur, next, aKeys, bKeys, residual, false /* build the fetched side */, nil)
	if err != nil {
		return nil, err
	}
	if len(aKeys) > 0 {
		hj.Shared = share
	}
	// cur streams through the probe side: every probe row is either
	// dropped or re-copied into the join's own output arena before the
	// next batch is pulled, so cur's rows need not stay alive.
	relalg.MarkTransient(cur)
	return hj, nil
}

// BuildStream compiles a prepared plan into an iterator tree governed by
// sess. Nothing runs until the tree is Opened — open it with the
// session's context; Collect it for a materialized answer. The tree is
// single-use.
func (e *Executor) BuildStream(sess *Session, plan *BranchPlan) (relalg.Iterator, error) {
	var cur relalg.Iterator
	for i := range plan.Steps {
		step := &plan.Steps[i]
		act := plan.stepActuals(i)
		var after sqlparse.Expr
		if len(step.AfterPreds) > 0 {
			after = sqlparse.AndAll(step.AfterPreds)
		}
		if len(step.BindJoins) == 0 {
			next, err := e.sourceIter(sess, step, act)
			if err != nil {
				return nil, err
			}
			switch {
			case cur != nil: // the join applies after to each joined pair
				cur, err = e.joinIter(e.buildSharer(sess, step), cur, next, step.JoinKeys, step.Binding, after)
			case after != nil:
				cur = relalg.NewFilter(next, after)
			default:
				cur = next
			}
			if err != nil {
				return nil, err
			}
		} else {
			// A bind join is a pipeline breaker on the feeding side: every
			// distinct combination of feeding values must be known before
			// the dependent source can be queried, so the intermediate
			// result materializes here, in memory, and both fetch and join
			// defer to Open time.
			if cur == nil {
				return nil, fmt.Errorf("planner: bind join for %s with no prior result", step.Relation)
			}
			schema, err := e.Catalog.Schema(step.Relation)
			if err != nil {
				return nil, err
			}
			prev := cur
			joined := prev.Schema().Concat(schema.Qualify(step.Binding))
			cur = relalg.NewDeferred(joined, func(ctx context.Context) (relalg.Iterator, error) {
				curRel, err := relalg.Collect(ctx, prev, "")
				if err != nil {
					return nil, err
				}
				fetched, err := e.fetchBindStep(ctx, sess, step, act, curRel)
				if err != nil {
					return nil, err
				}
				return e.joinIter(nil, relalg.NewScan(curRel), relalg.NewScan(fetched), step.JoinKeys, step.Binding, after)
			})
		}
		if act != nil {
			// Count the step's downstream output (after joins and local
			// predicates) for the act_out column of EXPLAIN ANALYZE.
			cur = relalg.NewCounted(cur, &act.Out)
		}
	}

	items, err := projectItems(plan.Items, cur.Schema())
	if err != nil {
		return nil, err
	}
	keys := make([]relalg.OrderKey, len(plan.OrderBy))
	for i, o := range plan.OrderBy {
		keys[i] = relalg.OrderKey{Expr: o.Expr, Desc: o.Desc}
	}
	out := cur
	projSchema := relalg.ProjectionSchema(items, cur.Schema())
	if len(plan.OrderBy) > 0 && !orderKeysResolve(plan.OrderBy, projSchema) {
		// ORDER BY references source columns the projection drops: sort
		// before projecting (as the materialized executor's fallback did —
		// including its quirk of skipping DISTINCT on this path).
		out = relalg.NewProject(relalg.NewSort(cur, keys, nil), items)
	} else {
		// The select list folds into the last step's join, whose arena is
		// then the branch's output, marked only by its consumer. With no
		// join to fold into, a projection re-copies every value, so its
		// input may recycle (not on the sort-first road above: Sort
		// retains cur's rows).
		if !relalg.FuseProject(cur, items) {
			relalg.MarkTransient(cur)
			out = relalg.NewProject(cur, items)
		}
		if plan.Distinct {
			out = relalg.NewDistinct(out)
		}
		if len(plan.OrderBy) > 0 {
			out = relalg.NewSort(out, keys, nil)
		}
	}
	out = relalg.NewLimit(out, plan.Limit)
	if plan.Actuals != nil {
		out = relalg.NewCounted(out, &plan.Actuals.Rows)
	}
	return relalg.Checked(relalg.NewOnOpen(out, func() {
		e.mu.Lock()
		e.stats.BranchesRun++
		e.mu.Unlock()
	})), nil
}

// orderKeysResolve reports whether every column reference in the ORDER BY
// keys resolves in the projected schema (mirroring Compile's two-step
// lookup), deciding whether to sort after or before projection.
func orderKeysResolve(order []sqlparse.OrderItem, schema relalg.Schema) bool {
	for _, o := range order {
		ok := true
		sqlparse.WalkExprs(o.Expr, func(x sqlparse.Expr) bool {
			if c, isRef := x.(*sqlparse.ColRef); isRef {
				if schema.Index(c.String()) < 0 && schema.Index(c.Column) < 0 {
					ok = false
					return false
				}
			}
			return true
		})
		if !ok {
			return false
		}
	}
	return true
}

// selectStream compiles one SELECT block (aggregated or not) into an
// iterator tree.
func (e *Executor) selectStream(sess *Session, sel *sqlparse.Select) (relalg.Iterator, error) {
	if hasAggregates(sel) {
		return e.aggregateStream(sess, sel)
	}
	plan, err := e.PlanCtx(sess.Context(), sel)
	if err != nil {
		return nil, err
	}
	return e.BuildStream(sess, plan)
}

// StatementStream compiles a statement (SELECT or UNION tree) into an
// iterator tree under sess; nothing runs until the tree is opened with
// the session's context. UNION combines with set semantics unless marked
// ALL. Service layers use it to stream un-mediated (naive) answers
// incrementally.
func (e *Executor) StatementStream(sess *Session, stmt sqlparse.Statement) (relalg.Iterator, error) {
	switch s := stmt.(type) {
	case *sqlparse.Select:
		return e.selectStream(sess, s)
	case *sqlparse.Union:
		l, err := e.StatementStream(sess, s.Left)
		if err != nil {
			return nil, err
		}
		r, err := e.StatementStream(sess, s.Right)
		if err != nil {
			return nil, err
		}
		u, err := relalg.NewUnionAll(l, r)
		if err != nil {
			return nil, err
		}
		if s.All {
			return u, nil
		}
		return relalg.NewDistinct(u), nil
	}
	return nil, fmt.Errorf("planner: cannot execute %T", stmt)
}

// aggregateStream compiles a grouped SELECT: the SPJ core streams into a
// GroupBy breaker, then order/distinct/limit apply.
func (e *Executor) aggregateStream(sess *Session, sel *sqlparse.Select) (relalg.Iterator, error) {
	spj := *sel
	spj.Items = nil
	spj.GroupBy, spj.Having, spj.OrderBy = nil, nil, nil
	spj.Limit = -1
	spj.Distinct = false
	// Every column keeps its qualified name through the projection, so a
	// key or aggregate over b.k cannot resolve to a.k when both relations
	// have a column k.
	for _, tr := range sel.From {
		schema, err := e.Catalog.Schema(tr.Table)
		if err != nil {
			return nil, err
		}
		for _, c := range schema.Columns {
			q := tr.Binding() + "." + c.Name
			spj.Items = append(spj.Items, sqlparse.SelectItem{Expr: colRefFromQualified(q), Alias: q})
		}
	}
	plan, err := e.PlanCtx(sess.Context(), &spj)
	if err != nil {
		return nil, err
	}
	wide, err := e.BuildStream(sess, plan)
	if err != nil {
		return nil, err
	}
	// Aggregate over the wide result with the original expressions:
	// qualified references resolve exactly, bare ones by unique suffix.
	items := make([]relalg.AggItem, len(sel.Items))
	for i, it := range sel.Items {
		n := it.Alias
		if n == "" {
			if c, ok := it.Expr.(*sqlparse.ColRef); ok {
				n = c.Column
			} else {
				n = "col" + strconv.Itoa(i+1)
			}
		}
		items[i] = relalg.AggItem{Name: n, Expr: it.Expr}
	}
	var out relalg.Iterator = relalg.NewGroupBy(wide, sel.GroupBy, items, sel.Having, nil)
	if len(sel.OrderBy) > 0 {
		keys := make([]relalg.OrderKey, len(sel.OrderBy))
		for i, o := range sel.OrderBy {
			keys[i] = relalg.OrderKey{Expr: o.Expr, Desc: o.Desc}
		}
		out = relalg.NewSort(out, keys, nil)
	}
	if sel.Distinct {
		out = relalg.NewDistinct(out)
	}
	return relalg.NewLimit(out, sel.Limit), nil
}

// MediationStream compiles a mediated query into one iterator tree
// governed by sess: every branch pipeline feeding a streaming union (with
// the mediation's union semantics), then the post-union step when present.
// Building runs no source query. Rows leave in branch order. When the
// branches wait on slow sources (waitsOnSources) every branch opens early,
// at the union's Open, so their breakers wait on those sources together —
// unless the mediation's Post carries a LIMIT, whose early exit wants them
// lazy. Otherwise a branch opens when the union reaches it, and a
// satisfied LIMIT means later branches never contact their sources.
//
// Under Limits.PartialResults, a branch felled by a source fault (a
// Degradable error, after retries and the breaker) is silenced in-stream
// (degradedIter) with a session Warning instead of failing the query; the
// answer is the union of what the surviving branches deliver. When every
// branch degrades the answer is empty plus one warning per branch, not an
// error: the stream is already in the receiver's hands when the last
// branch dies. Failures that are not source faults stay fatal.
func (e *Executor) MediationStream(sess *Session, med *core.Mediation) (relalg.Iterator, error) {
	if len(med.Branches) == 0 {
		return nil, fmt.Errorf("planner: mediation has no branches")
	}
	children := make([]relalg.Iterator, len(med.Branches))
	for i, b := range med.Branches {
		it, err := e.selectStream(sess, b)
		if err != nil {
			return nil, err
		}
		if sess.Limits().PartialResults {
			it = &degradedIter{inner: it, e: e, sess: sess, branch: i + 1}
		}
		children[i] = it
	}

	united := children[0]
	if len(children) > 1 {
		u, err := relalg.NewUnionAll(children...)
		if err != nil {
			return nil, err
		}
		u.Ahead = (med.Post == nil || med.Post.Limit < 0) && e.waitsOnSources(med)
		united = u
		if !med.UnionAll {
			united = relalg.NewDistinct(united)
		}
	}
	if med.Post == nil {
		return united, nil
	}
	return postStream(med.Post, united)
}

// aheadLatency is the learned mean query latency from which a source is
// slow enough for a mediated union to open its branches ahead. Below it
// the goroutine handoffs cost more than the overlap saves: opening every
// union ahead cost the paper-size workload 15% p50, and a 10,000-row
// stream 4–11% time to first row, on 2 vCPUs.
const aheadLatency = time.Millisecond

// waitsOnSources reports whether a relation med reads is served by a
// source whose learned mean query latency reaches aheadLatency.
func (e *Executor) waitsOnSources(med *core.Mediation) bool {
	if e.AdaptiveStats == nil {
		return false
	}
	for _, b := range med.Branches {
		for _, t := range b.From {
			src, _ := e.Catalog.SourceOf(t.Table)
			if lat, ok := e.AdaptiveStats.SourceLatency(src); ok && lat >= aheadLatency {
				return true
			}
		}
	}
	return false
}

// degradedIter silences a mediation branch under partial-results mode: a
// Degradable failure at Open or mid-stream warns the session, counts the
// branch as failed, and presents as an empty (or prematurely ended)
// stream instead of an error; everything else passes through. Tuples the
// branch delivered before dying stay in the answer — they are correct
// rows, and the warning tells the receiver the branch is incomplete.
//
// A degradable Open failure is held until the first Next, so a branch the
// union opened early warns when the union reaches it, in branch order.
type degradedIter struct {
	inner  relalg.Iterator
	e      *Executor
	sess   *Session
	branch int
	opened bool
	done   bool
	held   error // a degradable Open failure, reported at the first Next
}

func (d *degradedIter) Schema() relalg.Schema { return d.inner.Schema() }

func (d *degradedIter) Open(ctx context.Context) error {
	err := d.inner.Open(ctx)
	d.opened = err == nil
	if err != nil && Degradable(err) {
		d.held = err
		return nil
	}
	return err
}

func (d *degradedIter) Next(max int) (relalg.Batch, error) {
	if d.held != nil {
		d.degrade(d.held)
		d.held = nil
	}
	if d.done {
		return relalg.Batch{}, nil
	}
	b, err := d.inner.Next(max)
	if err != nil && Degradable(err) {
		// Operators flush buffered rows before surfacing an error, so by
		// the time the fault reaches here every good row is already
		// downstream; presenting EOF loses nothing.
		d.degrade(err)
		return relalg.Batch{}, nil
	}
	return b, err
}

func (d *degradedIter) degrade(err error) {
	d.done = true
	d.sess.warnBranch(d.branch, err)
	d.e.mu.Lock()
	d.e.stats.BranchesFailed++
	d.e.mu.Unlock()
}

func (d *degradedIter) Close() error {
	if !d.opened {
		return nil
	}
	d.opened = false
	return d.inner.Close()
}

// postStream applies a mediation's post-union step to the union stream.
func postStream(post *core.Post, in relalg.Iterator) (relalg.Iterator, error) {
	out := in
	if len(post.GroupBy) > 0 || anyAggItems(post.Items) {
		items := make([]relalg.AggItem, len(post.Items))
		for i, it := range post.Items {
			items[i] = relalg.AggItem{Name: it.Alias, Expr: it.Expr}
			if items[i].Name == "" {
				items[i].Name = "col" + strconv.Itoa(i+1)
			}
		}
		out = relalg.NewGroupBy(out, post.GroupBy, items, post.Having, nil)
	} else if len(post.Items) > 0 {
		items := make([]relalg.ProjectItem, len(post.Items))
		for i, it := range post.Items {
			items[i] = relalg.ProjectItem{Name: it.Alias, Expr: it.Expr}
			if items[i].Name == "" {
				if c, ok := it.Expr.(*sqlparse.ColRef); ok {
					items[i].Name = c.Column
				} else {
					items[i].Name = "col" + strconv.Itoa(i+1)
				}
			}
		}
		if !identity(items, out.Schema()) {
			out = relalg.NewProject(out, items)
		}
	}
	if post.Distinct {
		out = relalg.NewDistinct(out)
	}
	if len(post.OrderBy) > 0 {
		keys := make([]relalg.OrderKey, len(post.OrderBy))
		for i, o := range post.OrderBy {
			keys[i] = relalg.OrderKey{Expr: o.Expr, Desc: o.Desc}
		}
		out = relalg.NewSort(out, keys, nil)
	}
	return relalg.NewLimit(out, post.Limit), nil
}

// identity reports whether items project in unchanged: one bare
// reference per column, in order, under the column's own name — what
// core emits as the select list of a multi-branch ORDER BY or LIMIT.
func identity(items []relalg.ProjectItem, in relalg.Schema) bool {
	same := len(items) == len(in.Columns)
	for i := 0; same && i < len(items); i++ {
		c, ref := items[i].Expr.(*sqlparse.ColRef)
		same = ref && c.Table == "" && items[i].Name == in.Columns[i].Name && in.Index(c.Column) == i
	}
	return same
}
