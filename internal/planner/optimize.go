package planner

// The physical half of the optimizer: given the logical query graph
// (logical.go) and the cost model (cost.go), choose a left-deep access
// order and materialize it into a BranchPlan. Two enumerators share one
// candidate-step builder, so they differ only in how they search:
//
//   - dpOrder is Selinger-style dynamic programming over placed-set
//     bitmasks: best[mask] holds the cheapest left-deep prefix covering
//     exactly the relations in mask, transitions try every feasible next
//     relation, and the full-mask winner is reconstructed through parent
//     pointers. Bind-join feasibility (required bindings fed by constants
//     or placed relations) prunes transitions, so every enumerated order
//     is executable.
//   - greedyOrder is the legacy myopic pass — cheapest feasible access
//     next — kept as the Executor.DisableReorder ablation and as the
//     fallback above maxDPRelations relations, where 2^n states stop
//     being cheap.
//
// Both are deterministic: states advance in increasing mask order,
// relations in FROM order, and a candidate replaces the incumbent only
// when strictly cheaper, so ties resolve to the earliest-found order and
// repeated planning of the same query renders byte-identical plans.

import (
	"context"
	"fmt"
	"math"

	"repro/internal/relalg"
	"repro/internal/sqlparse"
	"repro/internal/wrapper"
)

// maxDPRelations caps the dynamic program's FROM-clause size; beyond it
// the greedy enumerator plans (2^n states would outgrow the win).
const maxDPRelations = 12

// PlanCtx builds the capability- and cost-aware plan for one SELECT block:
// it builds the logical query graph, then enumerates left-deep access
// orders — dynamic programming by default, the greedy pass under
// DisableReorder or past maxDPRelations relations — admitting a relation
// only once its required bindings can be fed by constants or by columns
// of relations already placed (a bind join), and materializes the winning
// order into executable steps. ctx — the session context at every engine
// call site — bounds the cost model's wrapper stat probes (EstimateRows /
// DistinctCount against live sources), so they die with the session.
func (e *Executor) PlanCtx(ctx context.Context, sel *sqlparse.Select) (*BranchPlan, error) {
	lq, err := e.buildLogical(sel)
	if err != nil {
		return nil, err
	}
	pb := &planBuilder{e: e, lq: lq, cm: e.costModelFor(ctx)}
	var order []int
	if e.DisableReorder || len(lq.rels) > maxDPRelations {
		order, err = pb.greedyOrder()
	} else {
		order, err = pb.dpOrder()
	}
	if err != nil {
		return nil, err
	}
	return pb.build(order)
}

// planBuilder turns (logical graph, cost model) into candidate steps and
// complete plans.
type planBuilder struct {
	e  *Executor
	lq *logicalQuery
	cm *costModel
}

// errNoFeasibleOrder is the shared complaint when no placement order can
// feed every required binding.
func errNoFeasibleOrder() error {
	return fmt.Errorf("planner: cannot satisfy required bindings of the remaining relations (no feasible access order)")
}

// candidate prices placing b next, given the relations already placed and
// the estimated cardinality of the current intermediate result. It
// returns the executable step, the estimated cardinality after the step's
// joins, and the step's cost; ok=false when b's required bindings cannot
// be fed yet.
func (pb *planBuilder) candidate(b *relBinding, placed uint64, curRows float64) (step PlanStep, outRows, cost float64, ok bool) {
	lq := pb.lq
	// Required bindings not covered by constant filters must be fed from
	// join edges to placed bindings.
	var bindJoins []BindPair
	for _, rc := range b.caps.RequiredBindings {
		if b.reqCovered[rc] {
			continue
		}
		fed := lq.feedFor(b, rc, placed)
		if fed == "" {
			return PlanStep{}, 0, 0, false
		}
		bindJoins = append(bindJoins, BindPair{Column: rc, FromQualified: fed})
	}
	// Join keys to already-placed bindings.
	var keys []JoinKey
	for _, j := range lq.joins {
		switch {
		case j.a == b && placed&j.b.bit() != 0:
			keys = append(keys, JoinKey{CurQualified: j.b.name + "." + j.bCol, NewColumn: j.aCol})
		case j.b == b && placed&j.a.bit() != 0:
			keys = append(keys, JoinKey{CurQualified: j.a.name + "." + j.aCol, NewColumn: j.bCol})
		}
	}

	bindCols := make([]string, len(bindJoins))
	for i, bp := range bindJoins {
		bindCols[i] = bp.Column
	}
	// One probe per distinct feeder combination, bounded by the current
	// cardinality and — when a feeder column's distinct count is known —
	// by the values that can exist at all. An IN-capable source answers
	// them in ⌈probes/batch⌉ batched queries, which shrinks the per-query
	// overhead term while the transfer term is unchanged.
	probes := 1.0
	if len(bindJoins) > 0 {
		probes = math.Max(curRows, 1)
		if len(bindJoins) == 1 {
			if fb, fcol, ok := lq.bindingOf(bindJoins[0].FromQualified); ok {
				if d := pb.cm.distinctOf(fb, fcol); d > 0 && float64(d) < probes {
					probes = float64(d)
				}
			}
		}
	}
	queries := probes
	batch := pb.e.batchSizeFor(b.caps, len(bindJoins))
	if batch > 1 {
		queries = math.Ceil(probes / float64(batch))
	}
	perProbe := pb.cm.accessRows(b, b.pushed, bindCols)
	transfer := perProbe * probes
	cost = pb.cm.perQueryCost(b)*queries + b.w.Cost().PerTuple*transfer

	// Cardinality after the step's joins. Keys on a bound column carry no
	// extra selectivity: the per-probe transfer estimate is already
	// conditioned on that equality.
	if placed == 0 {
		outRows = perProbe
	} else {
		bound := map[string]bool{}
		for _, c := range bindCols {
			bound[c] = true
		}
		outRows = curRows * perProbe
		for _, k := range keys {
			if bound[k.NewColumn] {
				continue
			}
			fb, fcol, ok := lq.bindingOf(k.CurQualified)
			if !ok {
				fb = nil
			}
			outRows *= pb.cm.joinSelectivity(fb, fcol, b, k.NewColumn)
		}
		outRows = max(outRows, 1)
	}

	stepBatch := 0
	if len(bindJoins) > 0 {
		stepBatch = batch
	}
	step = PlanStep{
		Binding:    b.name,
		Relation:   b.relation,
		Source:     b.w.Source(),
		Pushed:     b.pushed,
		Local:      b.local,
		LocalPreds: b.localPreds,
		BindJoins:  bindJoins,
		JoinKeys:   keys,
		BatchSize:  stepBatch,
		EstRows:    transfer,
		EstQueries: queries,
		EstCost:    cost,
		SourceCost: b.w.Cost(),
	}
	return step, outRows, cost, true
}

// bindingOf resolves a qualified column ("rl.currency") back onto its
// binding and plain column.
func (lq *logicalQuery) bindingOf(qualified string) (*relBinding, string, bool) {
	for i := 0; i < len(qualified); i++ {
		if qualified[i] == '.' {
			name, col := qualified[:i], qualified[i+1:]
			for _, b := range lq.rels {
				if b.name == name {
					return b, col, true
				}
			}
			return nil, "", false
		}
	}
	return nil, "", false
}

// greedyOrder picks the cheapest feasible access at each step — the
// legacy ordering, kept as the DisableReorder ablation and the fallback
// for very wide FROM clauses. Ties resolve to FROM order.
func (pb *planBuilder) greedyOrder() ([]int, error) {
	n := len(pb.lq.rels)
	order := make([]int, 0, n)
	var placed uint64
	curRows := 1.0
	for len(order) < n {
		bestIdx := -1
		bestCost := 0.0
		bestRows := 0.0
		for _, b := range pb.lq.rels {
			if placed&b.bit() != 0 {
				continue
			}
			_, outRows, cost, ok := pb.candidate(b, placed, curRows)
			if !ok {
				continue
			}
			if bestIdx < 0 || cost < bestCost {
				bestIdx, bestCost, bestRows = b.idx, cost, outRows
			}
		}
		if bestIdx < 0 {
			return nil, errNoFeasibleOrder()
		}
		order = append(order, bestIdx)
		placed |= 1 << uint(bestIdx)
		curRows = bestRows
	}
	return order, nil
}

// dpOrder runs the Selinger-style dynamic program: for every placement
// mask, the cheapest left-deep prefix reaching it, extended one feasible
// relation at a time. States are a dense slice indexed by mask — no map
// iteration anywhere — so enumeration order, and therefore tie-breaking,
// is fixed.
func (pb *planBuilder) dpOrder() ([]int, error) {
	n := len(pb.lq.rels)
	type dpState struct {
		cost float64
		rows float64
		last int // relation placed to reach this mask
		prev uint64
		ok   bool
	}
	best := make([]dpState, 1<<uint(n))
	best[0] = dpState{cost: 0, rows: 1, last: -1, ok: true}
	full := uint64(1<<uint(n)) - 1
	for mask := uint64(0); mask <= full; mask++ {
		st := best[mask]
		if !st.ok {
			continue
		}
		for _, b := range pb.lq.rels {
			if mask&b.bit() != 0 {
				continue
			}
			_, outRows, cost, ok := pb.candidate(b, mask, st.rows)
			if !ok {
				continue
			}
			next := mask | b.bit()
			total := st.cost + cost
			if !best[next].ok || total < best[next].cost {
				best[next] = dpState{cost: total, rows: outRows, last: b.idx, prev: mask, ok: true}
			}
		}
	}
	if !best[full].ok {
		return nil, errNoFeasibleOrder()
	}
	order := make([]int, n)
	for mask, i := full, n-1; mask != 0; i-- {
		order[i] = best[mask].last
		mask = best[mask].prev
	}
	return order, nil
}

// build materializes an access order into the executable plan: candidate
// steps replayed in order, residual predicates attached to the first step
// after which all their bindings are placed.
func (pb *planBuilder) build(order []int) (*BranchPlan, error) {
	lq := pb.lq
	sel := lq.sel
	plan := &BranchPlan{Limit: sel.Limit, Distinct: sel.Distinct, OrderBy: sel.OrderBy, Items: sel.Items}
	var placed uint64
	curRows := 1.0
	residualDone := make([]bool, len(lq.residuals))
	for _, idx := range order {
		b := lq.rels[idx]
		step, outRows, cost, ok := pb.candidate(b, placed, curRows)
		if !ok {
			return nil, errNoFeasibleOrder()
		}
		placed |= b.bit()
		curRows = outRows
		for ri, r := range lq.residuals {
			if residualDone[ri] || r.mask&^placed != 0 {
				continue
			}
			residualDone[ri] = true
			step.AfterPreds = append(step.AfterPreds, r.expr)
		}
		plan.EstCost += cost
		plan.Steps = append(plan.Steps, step)
	}
	return plan, nil
}

// simpleFilter recognizes column-op-constant predicates (either side).
func simpleFilter[T any](p sqlparse.Expr, resolve func(*sqlparse.ColRef) (T, string, error)) (wrapper.Filter, T, bool, error) {
	var zero T
	b, ok := p.(*sqlparse.BinaryExpr)
	if !ok || !isCompare(b.Op) {
		return wrapper.Filter{}, zero, false, nil
	}
	col, isColL := b.L.(*sqlparse.ColRef)
	colR, isColR := b.R.(*sqlparse.ColRef)
	lit, litOK := literalValue(b.R)
	litL, litLOK := literalValue(b.L)
	switch {
	case isColL && litOK:
		bind, name, err := resolve(col)
		if err != nil {
			return wrapper.Filter{}, zero, false, err
		}
		return wrapper.Filter{Column: name, Op: b.Op, Value: lit}, bind, true, nil
	case isColR && litLOK:
		bind, name, err := resolve(colR)
		if err != nil {
			return wrapper.Filter{}, zero, false, err
		}
		return wrapper.Filter{Column: name, Op: flipOp(b.Op), Value: litL}, bind, true, nil
	}
	return wrapper.Filter{}, zero, false, nil
}

type equiJoinPred[T any] struct {
	a, b       T
	aCol, bCol string
}

// equiJoin recognizes binding-to-binding equality predicates.
func equiJoin[T comparable](p sqlparse.Expr, resolve func(*sqlparse.ColRef) (T, string, error)) (equiJoinPred[T], bool, error) {
	var zero equiJoinPred[T]
	b, ok := p.(*sqlparse.BinaryExpr)
	if !ok || b.Op != "=" {
		return zero, false, nil
	}
	lc, lok := b.L.(*sqlparse.ColRef)
	rc, rok := b.R.(*sqlparse.ColRef)
	if !lok || !rok {
		return zero, false, nil
	}
	lb, lcol, err := resolve(lc)
	if err != nil {
		return zero, false, err
	}
	rb, rcol, err := resolve(rc)
	if err != nil {
		return zero, false, err
	}
	if lb == rb {
		return zero, false, nil // same-binding equality is a local pred
	}
	return equiJoinPred[T]{a: lb, b: rb, aCol: lcol, bCol: rcol}, true, nil
}

func isCompare(op string) bool {
	switch op {
	case "=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case ">":
		return "<"
	case "<=":
		return ">="
	case ">=":
		return "<="
	}
	return op
}

func literalValue(e sqlparse.Expr) (relalg.Value, bool) {
	switch e := e.(type) {
	case sqlparse.NumberLit:
		return relalg.NumV(float64(e)), true
	case sqlparse.StringLit:
		return relalg.StrV(string(e)), true
	case sqlparse.BoolLit:
		return relalg.BoolV(bool(e)), true
	case sqlparse.NullLit:
		return relalg.Null, true
	case *sqlparse.UnaryExpr:
		if e.Op == "-" {
			if n, ok := e.X.(sqlparse.NumberLit); ok {
				return relalg.NumV(-float64(n)), true
			}
		}
	}
	return relalg.Null, false
}
