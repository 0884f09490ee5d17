package planner

// This file builds the logical query graph the optimizer enumerates over:
// one relBinding per FROM entry, the WHERE conjuncts classified into
// pushable filters, engine-local filters, equi-join edges and residual
// predicates. The graph is purely logical — no access order is chosen
// here — and placement sets are represented as bitmasks over the FROM
// order, so both the greedy enumerator and the dynamic-programming one
// (optimize.go) work over the same structure.

import (
	"fmt"

	"repro/internal/relalg"
	"repro/internal/sqlparse"
	"repro/internal/wrapper"
)

// relBinding is one FROM-clause entry resolved against the catalog: the
// relation, its schema, the source's capabilities and cost parameters,
// and the single-relation predicates already partitioned into pushed
// (sent to the source) and local (applied engine-side after transfer).
type relBinding struct {
	idx      int // position in the FROM clause; bit idx in placement masks
	name     string
	relation string
	schema   relalg.Schema
	caps     wrapper.Capabilities
	w        wrapper.Wrapper

	pushed     []wrapper.Filter
	local      []wrapper.Filter
	localPreds []sqlparse.Expr
	// reqCovered marks required bindings satisfied by pushed constant
	// equalities; the rest must be fed by join edges (a bind join).
	reqCovered map[string]bool
}

// bit returns the binding's placement-mask bit.
func (b *relBinding) bit() uint64 { return 1 << uint(b.idx) }

// joinEdge is one binding-to-binding equality predicate.
type joinEdge struct {
	a, b       *relBinding
	aCol, bCol string
	expr       sqlparse.Expr
}

// residualPred is a multi-binding predicate that is neither a simple
// filter nor an equi-join; it runs as soon as every binding it mentions
// has been placed.
type residualPred struct {
	expr sqlparse.Expr
	mask uint64
}

// logicalQuery is the optimizer's input: the query graph for one SELECT
// block.
type logicalQuery struct {
	sel       *sqlparse.Select
	rels      []*relBinding
	joins     []joinEdge
	residuals []residualPred
}

// buildLogical resolves sel against the catalog and classifies its WHERE
// conjuncts. The result is deterministic: bindings keep FROM order,
// edges and residuals keep conjunct order, and per-binding filters keep
// the order of appearance.
func (e *Executor) buildLogical(sel *sqlparse.Select) (*logicalQuery, error) {
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("planner: query has no FROM clause")
	}
	if len(sel.From) > 64 {
		// Placement sets are uint64 bitmasks; beyond 64 relations they
		// would overflow silently. Refuse loudly — no realistic mediation
		// emits a 65-way join, and the execution layer could not carry
		// one anyway.
		return nil, fmt.Errorf("planner: FROM clause has %d relations; the planner supports at most 64", len(sel.From))
	}
	lq := &logicalQuery{sel: sel}
	byName := map[string]*relBinding{}
	for i, ref := range sel.From {
		w, err := e.Catalog.WrapperFor(ref.Table)
		if err != nil {
			return nil, err
		}
		schema, err := w.Schema(ref.Table)
		if err != nil {
			return nil, err
		}
		caps, err := w.Capabilities(ref.Table)
		if err != nil {
			return nil, err
		}
		b := &relBinding{idx: i, name: ref.Binding(), relation: ref.Table, schema: schema, caps: caps, w: w}
		if byName[b.name] != nil {
			return nil, fmt.Errorf("planner: duplicate binding %s", b.name)
		}
		lq.rels = append(lq.rels, b)
		byName[b.name] = b
	}

	// resolve maps a column reference onto (binding, plain column).
	resolve := func(c *sqlparse.ColRef) (*relBinding, string, error) {
		if c.Table != "" {
			b := byName[c.Table]
			if b == nil {
				return nil, "", fmt.Errorf("planner: no binding %s for %s", c.Table, c)
			}
			idx := b.schema.Index(c.Column)
			if idx < 0 {
				return nil, "", fmt.Errorf("planner: %s has no column %s", b.relation, c.Column)
			}
			return b, b.schema.Columns[idx].Name, nil
		}
		var found *relBinding
		col := ""
		for _, b := range lq.rels {
			if idx := b.schema.Index(c.Column); idx >= 0 {
				if found != nil {
					return nil, "", fmt.Errorf("planner: column %s is ambiguous", c.Column)
				}
				found, col = b, b.schema.Columns[idx].Name
			}
		}
		if found == nil {
			return nil, "", fmt.Errorf("planner: unknown column %s", c.Column)
		}
		return found, col, nil
	}

	// predMask returns the placement mask of the bindings p mentions.
	predMask := func(p sqlparse.Expr) (uint64, error) {
		var mask uint64
		for _, c := range sqlparse.ColumnsOf(p) {
			b, _, err := resolve(c)
			if err != nil {
				return 0, err
			}
			mask |= b.bit()
		}
		return mask, nil
	}

	filters := map[string][]wrapper.Filter{}
	for _, p := range sqlparse.Conjuncts(sel.Where) {
		if f, b, ok, err := simpleFilter(p, resolve); err != nil {
			return nil, err
		} else if ok {
			filters[b.name] = append(filters[b.name], f)
			continue
		}
		if jp, ok, err := equiJoin(p, resolve); err != nil {
			return nil, err
		} else if ok {
			lq.joins = append(lq.joins, joinEdge{a: jp.a, b: jp.b, aCol: jp.aCol, bCol: jp.bCol, expr: p})
			continue
		}
		mask, err := predMask(p)
		if err != nil {
			return nil, err
		}
		if popcount(mask) == 1 {
			for _, b := range lq.rels {
				if mask == b.bit() {
					b.localPreds = append(b.localPreds, p)
				}
			}
			continue
		}
		lq.residuals = append(lq.residuals, residualPred{expr: p, mask: mask})
	}

	// Partition each binding's simple filters into pushed and local, and
	// record which required bindings pushed constants already cover. The
	// split depends only on capabilities and the pushdown ablation, never
	// on placement, so it is computed once here.
	for _, b := range lq.rels {
		required := map[string]bool{}
		for _, rc := range b.caps.RequiredBindings {
			required[rc] = true
		}
		b.reqCovered = map[string]bool{}
		for _, f := range filters[b.name] {
			pushable := b.caps.Selection || (f.Op == "=" && required[f.Column])
			if e.DisablePushdown && !(f.Op == "=" && required[f.Column]) {
				pushable = false
			}
			if pushable {
				b.pushed = append(b.pushed, f)
				if f.Op == "=" {
					b.reqCovered[f.Column] = true
				}
			} else {
				b.local = append(b.local, f)
			}
		}
	}
	return lq, nil
}

// feedFor finds the join edge able to feed required column rc of b from
// an already-placed binding, returning the feeding qualified column ("" if
// none). Edges are scanned in conjunct order, so the choice is
// deterministic.
func (lq *logicalQuery) feedFor(b *relBinding, rc string, placed uint64) string {
	for _, j := range lq.joins {
		if j.a == b && j.aCol == rc && placed&j.b.bit() != 0 {
			return j.b.name + "." + j.bCol
		}
		if j.b == b && j.bCol == rc && placed&j.a.bit() != 0 {
			return j.a.name + "." + j.aCol
		}
	}
	return ""
}

func popcount(m uint64) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}
