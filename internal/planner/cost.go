package planner

// This file prices source accesses for the plan enumerators. The pricing
// rules live in a costModel over a Stats interface: with no statistics
// the model falls back to the wrappers' static EstimateRows guesses and
// fixed selectivity constants (exactly the pre-optimizer behavior), and
// every learned fact — observed cardinalities per (relation, canonical
// filter signature), per-source query latencies, distinct counts from
// Statser-capable wrappers — sharpens an estimate without changing the
// formula. The executor's adaptive StatsStore (stats.go) is the one
// Stats implementation; tests may plug their own.

import (
	"context"
	"math"
	"time"

	"repro/internal/wrapper"
)

// Selectivity guesses used by the cost model when no statistics apply.
const (
	selEq    = 0.1
	selRange = 0.4
	selNeq   = 0.9
	selJoin  = 0.1
)

// Stats is what the cost model consults before falling back to static
// guesses. All methods return ok=false when nothing has been learned.
type Stats interface {
	// AccessRows returns the learned tuple count of one source access:
	// the rows a query against relation with the given filters (plus one
	// equality per bind column, values unknown at plan time) transfers.
	// For bind-join accesses the answer is per probe.
	AccessRows(relation string, filters []wrapper.Filter, bindCols []string) (float64, bool)
	// RelationRows returns the learned unfiltered cardinality.
	RelationRows(relation string) (float64, bool)
	// SourceLatency returns the mean observed per-query latency of a
	// source.
	SourceLatency(source string) (time.Duration, bool)
}

// costModel prices candidate plan steps. One model is built per Plan
// call; it snapshots nothing (Stats implementations are concurrency-safe)
// but caches Statser distinct counts for the duration of the enumeration.
type costModel struct {
	ctx      context.Context // bounds wrapper stat probes for the enumeration
	stats    Stats           // nil: static estimates only
	distinct map[string]int  // "binding.col" -> distinct count; -1 unknown
	hook     func(source string, perQuery float64) float64
}

// costModelFor builds the executor's cost model: backed by the adaptive
// statistics store when the executor has one. ctx bounds any live stat
// probes the wrappers cost (EstimateRows / DistinctCount) — it is the
// planning session's context, so canceling the session stops its probes.
func (e *Executor) costModelFor(ctx context.Context) *costModel {
	cm := &costModel{ctx: ctx, distinct: map[string]int{}, hook: e.PerQueryCostHook}
	if e.AdaptiveStats != nil {
		cm.stats = e.AdaptiveStats
	}
	return cm
}

// accessRows estimates the tuples one source query against b transfers
// (per probe, for bind accesses). Preference order: learned cardinality
// for the exact access signature, learned cardinality for the filter
// shape, then the static path — learned (or guessed) base cardinality
// scaled by fixed per-filter selectivities.
func (cm *costModel) accessRows(b *relBinding, pushed []wrapper.Filter, bindCols []string) float64 {
	if cm.stats != nil {
		if rows, ok := cm.stats.AccessRows(b.relation, pushed, bindCols); ok {
			return math.Max(rows, 0)
		}
	}
	base := float64(b.w.EstimateRows(cm.ctx, b.relation))
	if cm.stats != nil {
		if rows, ok := cm.stats.RelationRows(b.relation); ok {
			base = rows
		}
	}
	rows := base
	for _, f := range pushed {
		switch f.Op {
		case "=":
			rows *= selEq
		case "<>":
			rows *= selNeq
		default:
			rows *= selRange
		}
	}
	for range bindCols {
		rows *= selEq
	}
	return max(rows, 1)
}

// distinctOf returns the distinct count of a binding's column via the
// wrapper's optional Statser extension, -1 when unknown. Answers are
// cached for the enumeration.
func (cm *costModel) distinctOf(b *relBinding, col string) int {
	key := b.name + "." + col
	if n, ok := cm.distinct[key]; ok {
		return n
	}
	n := -1
	if st, ok := b.w.(wrapper.Statser); ok {
		if d, ok := st.DistinctCount(cm.ctx, b.relation, col); ok && d > 0 {
			n = d
		}
	}
	cm.distinct[key] = n
	return n
}

// joinSelectivity estimates the selectivity of one equi-join key between
// a placed binding's column and the new binding's column: 1/max(distinct)
// when either side exposes statistics, the fixed selJoin guess otherwise.
func (cm *costModel) joinSelectivity(cur *relBinding, curCol string, next *relBinding, nextCol string) float64 {
	d := -1
	if cur != nil {
		d = cm.distinctOf(cur, curCol)
	}
	if n := cm.distinctOf(next, nextCol); n > d {
		d = n
	}
	if d > 0 {
		return 1 / float64(d)
	}
	return selJoin
}

// perQueryCost prices one query against b's source: the source's declared
// fixed overhead, floored by the observed mean latency (in milliseconds —
// the abstract cost units are calibrated so one unit is roughly a
// millisecond of communication) once executions have measured it.
func (cm *costModel) perQueryCost(b *relBinding) float64 {
	pq := b.w.Cost().PerQuery
	if cm.stats != nil {
		if lat, ok := cm.stats.SourceLatency(b.w.Source()); ok {
			if ms := float64(lat) / float64(time.Millisecond); ms > pq {
				pq = ms
			}
		}
	}
	if cm.hook != nil {
		pq = cm.hook(b.w.Source(), pq)
	}
	return pq
}
