package planner

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/sqlparse"
	"repro/internal/wrapper"
)

// BindPair feeds a required binding of a step's relation from a column of
// the intermediate result (a dependent / bind join).
type BindPair struct {
	// Column is the required column of the new relation (plain name).
	Column string
	// FromQualified is the already-available column feeding it
	// ("rl.currency").
	FromQualified string
}

// JoinKey equates one qualified column of the intermediate result with a
// plain column of the new relation.
type JoinKey struct {
	CurQualified string
	NewColumn    string // plain column of the step's relation
}

// PlanStep fetches one relation and joins it into the intermediate result.
type PlanStep struct {
	Binding  string
	Relation string
	Source   string

	// Pushed filters are sent to the source; Local ones the engine applies
	// after transfer (the source lacks the capability).
	Pushed []wrapper.Filter
	Local  []wrapper.Filter
	// LocalPreds are single-binding predicates too complex for the filter
	// protocol, applied by the engine right after transfer.
	LocalPreds []sqlparse.Expr
	// BindJoins are required bindings fed from earlier columns; non-empty
	// means one source query per distinct combination.
	BindJoins []BindPair
	// JoinKeys are the equality keys joining this relation to the
	// intermediate result (hash join when non-empty).
	JoinKeys []JoinKey
	// BatchSize is the planned IN-list width of a bind join against an
	// InList-capable source: probes are batched ⌈N/BatchSize⌉-wise. 1
	// means per-value probes; 0 means the step has no bind joins.
	BatchSize int
	// AfterPreds are predicates that become fully bound once this step
	// has run.
	AfterPreds []sqlparse.Expr

	// EstRows is the estimated tuples this step transfers from its source
	// (across all probes, for a bind join); EstQueries the estimated
	// source queries; EstCost the step's communication cost in the
	// source's abstract units. SourceCost snapshots the pricing
	// parameters so EXPLAIN ANALYZE can cost the measured counts the same
	// way.
	EstRows    float64
	EstQueries float64
	EstCost    float64
	SourceCost wrapper.Cost
}

// StepActuals are the measured counterparts of one step's estimates,
// filled in while an analyzed plan executes. Counters are atomic: a
// step's source fetches may run concurrently (batched probes, branches
// opened ahead).
type StepActuals struct {
	// Rows counts tuples actually transferred from the source for this
	// step (before engine-local filters).
	Rows atomic.Int64
	// Queries counts source queries issued for this step; probes answered
	// by the session cache count too (they are still accesses the plan
	// asked for). A hash-join build side served from the session's shared
	// build table never opens its scan: the step shows 0 rows, 0 queries.
	Queries atomic.Int64
	// Out counts the tuples the step emitted downstream, after its joins
	// and local predicates.
	Out atomic.Int64
}

// PlanActuals carries a plan's measured execution counts, one entry per
// step, plus the rows the whole branch produced.
type PlanActuals struct {
	Steps []StepActuals
	// Rows counts the branch's output tuples.
	Rows atomic.Int64
}

// BranchPlan is the plan for one SELECT block.
type BranchPlan struct {
	Steps    []PlanStep
	EstCost  float64
	Items    []sqlparse.SelectItem
	Distinct bool
	OrderBy  []sqlparse.OrderItem
	Limit    int

	// Actuals, when non-nil (EnableAnalyze), makes the compiled pipeline
	// count per-step actual rows and queries as it runs; Explain then
	// renders estimated-vs-actual columns.
	Actuals *PlanActuals
}

// EnableAnalyze attaches (and returns) actual-execution counters to the
// plan: the next BuildStream wires them through the pipeline, and Explain
// renders measured columns next to the estimates. Call it before
// executing the plan.
func (p *BranchPlan) EnableAnalyze() *PlanActuals {
	if p.Actuals == nil {
		p.Actuals = &PlanActuals{Steps: make([]StepActuals, len(p.Steps))}
	}
	return p.Actuals
}

// stepActuals returns the counters for step i (nil when not analyzing).
func (p *BranchPlan) stepActuals(i int) *StepActuals {
	if p.Actuals == nil || i >= len(p.Actuals.Steps) {
		return nil
	}
	return &p.Actuals.Steps[i]
}

// Explain renders the plan for humans (EXPLAIN through coin, the server,
// the client and cmd/coinquery, plus the planner tests). After an
// analyzed execution (EnableAnalyze + run) every step also shows its
// measured rows, queries, cost and output cardinality.
func (p *BranchPlan) Explain() string {
	var b strings.Builder
	for i, s := range p.Steps {
		fmt.Fprintf(&b, "step %d: %s", i+1, s.Relation)
		if s.Binding != s.Relation {
			fmt.Fprintf(&b, " AS %s", s.Binding)
		}
		fmt.Fprintf(&b, " @ %s", s.Source)
		if len(s.Pushed) > 0 {
			b.WriteString(" push[")
			for j, f := range s.Pushed {
				if j > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "%s %s %s", f.Column, f.Op, f.Value)
			}
			b.WriteString("]")
		}
		if len(s.Local) > 0 || len(s.LocalPreds) > 0 {
			fmt.Fprintf(&b, " local[%d]", len(s.Local)+len(s.LocalPreds))
		}
		if len(s.BindJoins) > 0 {
			b.WriteString(" bind[")
			for j, bp := range s.BindJoins {
				if j > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "%s<=%s", bp.Column, bp.FromQualified)
			}
			b.WriteString("]")
			if s.BatchSize > 1 {
				fmt.Fprintf(&b, " batch[%d]", s.BatchSize)
			}
		}
		if len(s.JoinKeys) > 0 {
			b.WriteString(" join[")
			for j, k := range s.JoinKeys {
				if j > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "%s=%s.%s", k.CurQualified, s.Binding, k.NewColumn)
			}
			b.WriteString("]")
		}
		fmt.Fprintf(&b, " est_rows=%.0f est_queries=%.0f est_cost=%.0f", s.EstRows, s.EstQueries, s.EstCost)
		act := p.stepActuals(i)
		if act != nil {
			rows, queries := act.Rows.Load(), act.Queries.Load()
			actCost := s.SourceCost.PerQuery*float64(queries) + s.SourceCost.PerTuple*float64(rows)
			fmt.Fprintf(&b, " | act_rows=%d act_queries=%d act_cost=%.0f act_out=%d",
				rows, queries, actCost, act.Out.Load())
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "total est_cost=%.0f", p.EstCost)
	if p.Actuals != nil {
		var rows, queries int64
		var cost float64
		for i := range p.Actuals.Steps {
			act := &p.Actuals.Steps[i]
			rows += act.Rows.Load()
			queries += act.Queries.Load()
			cost += p.Steps[i].SourceCost.PerQuery*float64(act.Queries.Load()) +
				p.Steps[i].SourceCost.PerTuple*float64(act.Rows.Load())
		}
		fmt.Fprintf(&b, " | act_cost=%.0f act_tuples=%d act_queries=%d act_branch_rows=%d",
			cost, rows, queries, p.Actuals.Rows.Load())
	}
	b.WriteByte('\n')
	return b.String()
}
