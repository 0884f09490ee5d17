// Package core implements the paper's primary contribution: the context
// mediator. A query posed in a receiver context — written as if no
// semantic conflicts existed — is rewritten into a mediated query in which
// every potential conflict between the contexts of the sources and the
// receiver is explicitly resolved: a union of sub-queries, one per
// consistent combination of modifier-value cases, with conversion
// arithmetic and joins against ancillary sources inserted where needed.
//
// The rewriting is the abductive procedure of the COIN framework: the
// query is compiled into a datalog goal over "semantic relations" whose
// definitions (generated by internal/domain from the elevation axioms,
// context theories and conversion functions) relate raw source values to
// receiver-context values; source relations are abducible; comparisons
// over data values unknown at mediation time become constraints. Each
// consistent abductive answer is one sub-query of the mediated union.
package core

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/datalog"
	"repro/internal/domain"
	"repro/internal/sqlparse"
)

// Mediator rewrites queries using the knowledge in a domain registry. It
// caches one compiled program per receiver context (Warm pre-compiles)
// and, on each program, the derivations of the query shapes solved
// against it (shape.go), and is safe for concurrent use, as the
// prototype's server answers many receivers at once.
//
// The registry may change at run time (coin.System.Add* register sources
// while serving), under this contract: a registry mutation must not
// overlap a mediation, and is followed by Invalidate — the three coin
// registration sites call it — which retires every program together with
// its memoised shapes. A mediation in flight finishes on the program it
// started with; what it memoises dies with that program.
type Mediator struct {
	Registry *domain.Registry

	// MaxBranches bounds the number of sub-queries a mediated query may
	// have (a safety valve; the number is the product of the case splits
	// of the modifiers involved). Zero means DefaultMaxBranches.
	MaxBranches int
	// MaxDepth bounds resolution depth; zero means the solver default.
	MaxDepth int

	mu    sync.Mutex
	progs map[string]*compiled
}

// compiled pairs a receiver's program with its explanation metadata and
// the shapes solved against it, by key (guarded by Mediator.mu).
type compiled struct {
	prog   *datalog.Program
	meta   *domain.CompileMeta
	shapes map[string]*shape
}

// DefaultMaxBranches bounds mediated-query size when Mediator.MaxBranches
// is zero.
const DefaultMaxBranches = 1024

// New creates a mediator over a registry.
func New(reg *domain.Registry) *Mediator {
	return &Mediator{Registry: reg, progs: map[string]*compiled{}}
}

// Mediation is the result of rewriting one query.
type Mediation struct {
	Receiver string
	Original sqlparse.Statement
	// Branches are the sub-queries of the mediated union, one per
	// consistent conflict-resolution case.
	Branches []*sqlparse.Select
	// Mediated is the full mediated statement (the UNION of Branches; a
	// single branch is a plain SELECT).
	Mediated sqlparse.Statement
	// UnionAll records whether branches must be combined with bag
	// semantics (required when Post aggregates over the union).
	UnionAll bool
	// Post is the processing that must run over the union of the
	// branches rather than inside each branch: aggregation, and ORDER
	// BY/LIMIT/DISTINCT when there is more than one branch. It is a SELECT
	// without FROM, its column references naming output columns of the
	// branches; nil when the branches are self-contained.
	Post *sqlparse.Select
	// Solutions are the raw abductive answers, for inspection and tests.
	Solutions []datalog.Solution

	meta *domain.CompileMeta
}

// Explanation renders the derivation of branch i as human-readable lines:
// which context-theory cases applied and which conversions were inserted,
// reconstructed from the abductive proof trace.
func (m *Mediation) Explanation(i int) []string {
	if i < 0 || i >= len(m.Solutions) || m.meta == nil {
		return nil
	}
	var out []string
	seen := map[string]bool{}
	for _, step := range m.Solutions[i].Trace {
		note, ok := m.meta.Note(step.Key(), step.Clause)
		if !ok || seen[note] {
			continue
		}
		seen[note] = true
		out = append(out, note)
	}
	return out
}

// ExplainText renders every branch with its SQL and derivation notes.
func (m *Mediation) ExplainText() string {
	var b strings.Builder
	for i, br := range m.Branches {
		fmt.Fprintf(&b, "branch %d:\n  %s\n", i+1, br.String())
		for _, note := range m.Explanation(i) {
			fmt.Fprintf(&b, "  - %s\n", note)
		}
	}
	return b.String()
}

// clonePost deep-copies a post-union step (nil stays nil): the one a
// compiled query holds is shared between requests, a Mediation's belongs
// to its consumer.
func clonePost(p *sqlparse.Select) *sqlparse.Select {
	if p == nil {
		return nil
	}
	c := &sqlparse.Select{Having: sqlparse.CloneExpr(p.Having), Limit: p.Limit, Distinct: p.Distinct}
	for _, g := range p.GroupBy {
		c.GroupBy = append(c.GroupBy, sqlparse.CloneExpr(g))
	}
	for _, it := range p.Items {
		it.Expr = sqlparse.CloneExpr(it.Expr)
		c.Items = append(c.Items, it)
	}
	for _, o := range p.OrderBy {
		o.Expr = sqlparse.CloneExpr(o.Expr)
		c.OrderBy = append(c.OrderBy, o)
	}
	return c
}

// SQL renders the mediated statement, including a post-processing comment
// when present, in the paper's multi-line layout.
func (m *Mediation) SQL() string {
	out := sqlparse.Pretty(m.Mediated)
	if m.Post != nil {
		post := *m.Post
		post.From = []sqlparse.TableRef{{Table: "mediated_union"}}
		out = "-- post-processing over the mediated union:\n-- " +
			post.String() + "\n" + out
	}
	return out
}

// Warm pre-compiles the registry program for a receiver context.
func (m *Mediator) Warm(receiver string) error {
	_, err := m.program(receiver)
	return err
}

func (m *Mediator) program(receiver string) (*compiled, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.progs[receiver]; ok {
		return p, nil
	}
	prog, meta, err := m.Registry.CompileWithMeta(receiver)
	if err != nil {
		return nil, err
	}
	c := &compiled{prog: prog, meta: meta, shapes: map[string]*shape{}}
	m.progs[receiver] = c
	return c, nil
}

// Invalidate drops cached programs and, with them, every memoised shape;
// call after changing the registry (e.g. registering a new source).
func (m *Mediator) Invalidate() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.progs = map[string]*compiled{}
}

// MediateSQL parses and mediates SQL text.
func (m *Mediator) MediateSQL(sql, receiver string) (*Mediation, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return m.Mediate(stmt, receiver)
}

// Mediate rewrites a statement posed in the receiver context. A UNION
// query is mediated branch by branch.
func (m *Mediator) Mediate(stmt sqlparse.Statement, receiver string) (*Mediation, error) {
	switch s := stmt.(type) {
	case *sqlparse.Select:
		return m.mediateSelect(s, receiver)
	case *sqlparse.Union:
		left, err := m.Mediate(s.Left, receiver)
		if err != nil {
			return nil, err
		}
		right, err := m.Mediate(s.Right, receiver)
		if err != nil {
			return nil, err
		}
		return unite(s, receiver, left, right)
	}
	return nil, fmt.Errorf("core: cannot mediate %T", stmt)
}

// unite combines the mediations of a UNION's two arms.
func unite(stmt *sqlparse.Union, receiver string, left, right *Mediation) (*Mediation, error) {
	if left.Post != nil || right.Post != nil {
		return nil, fmt.Errorf("core: cannot mediate a UNION whose arms need post-processing")
	}
	branches := append(append([]*sqlparse.Select(nil), left.Branches...), right.Branches...)
	stmts := make([]sqlparse.Statement, len(branches))
	for i, b := range branches {
		stmts[i] = b
	}
	return &Mediation{
		Receiver:  receiver,
		Original:  stmt,
		Branches:  branches,
		Mediated:  sqlparse.UnionAll(stmts),
		UnionAll:  false,
		Solutions: append(append([]datalog.Solution(nil), left.Solutions...), right.Solutions...),
		meta:      left.meta,
	}, nil
}

// mediateSelect is the one road of a SELECT: its shape's derivation
// (solved on first sight, memoised on the compiled program after),
// instantiated with this request's literals, emitted. MaxBranches bounds
// the derivation, not the instantiated union: a literal that would have
// pruned a query back under the cap does not rescue it.
func (m *Mediator) mediateSelect(sel *sqlparse.Select, receiver string) (*Mediation, error) {
	comp, err := m.program(receiver)
	if err != nil {
		return nil, err
	}
	maxBranches, depth := m.MaxBranches, m.MaxDepth
	if maxBranches == 0 {
		maxBranches = DefaultMaxBranches
	}
	if depth == 0 {
		depth = datalog.DefaultMaxDepth
	}
	key, lits := shapeOf(sel)
	m.mu.Lock()
	sh := comp.shapes[key]
	m.mu.Unlock()
	// A derivation that fits a depth bound fits every larger one; under a
	// smaller one it is solved again.
	if sh == nil || sh.depth > depth {
		qc, err := m.compileQuery(sel, receiver, comp.prog, true)
		if err != nil {
			return nil, err
		}
		if qc.params != len(lits) {
			return nil, fmt.Errorf("core: internal: compiled %d parameters for %d literals", qc.params, len(lits))
		}
		sols, err := m.solver(qc.prog, maxBranches+1).Solve(qc.goals...)
		if err != nil {
			return nil, fmt.Errorf("core: abductive procedure failed: %w", err)
		}
		// A shape keeps what emit reads: not the request's statement, not
		// a program cloned for OR clauses.
		qc.sel, qc.prog, qc.goals, qc.semAdded = nil, nil, nil, nil
		sh = &shape{qc: qc, sols: sols, depth: depth}
		if len(sols) <= maxBranches { // an enumeration cut short is not the shape's derivation
			m.publish(comp, key, sh)
		}
	}
	if len(sh.sols) > maxBranches {
		return nil, fmt.Errorf("core: mediated query exceeds %d branches; raise Mediator.MaxBranches", maxBranches)
	}
	return sh.qc.assemble(sel, sh.instantiate(lits), comp.meta)
}

// solver configures the abductive procedure over a query's program.
func (m *Mediator) solver(prog *datalog.Program, maxSolutions int) *datalog.Solver {
	return &datalog.Solver{
		Program:            prog,
		Abducible:          m.Registry.IsAbducible,
		CollectConstraints: true,
		MaxDepth:           m.MaxDepth,
		MaxSolutions:       maxSolutions,
		Denials:            m.Registry.Denials(),
	}
}

// assemble emits one branch per solution and decides where ORDER BY,
// LIMIT and DISTINCT run. qc may be shared between requests and is only
// read; everything the Mediation can reach apart from the solutions'
// Bindings, Abduced and Trace is built here.
func (qc *queryCompile) assemble(sel *sqlparse.Select, sols []datalog.Solution, meta *domain.CompileMeta) (*Mediation, error) {
	if len(sols) == 0 {
		return nil, fmt.Errorf("core: query is unsatisfiable under the contexts involved (no consistent conflict resolution)")
	}

	med := &Mediation{Receiver: qc.receiver, Original: sel, Solutions: sols, meta: meta}
	for _, sol := range sols {
		branch, err := qc.emit(sol)
		if err != nil {
			return nil, err
		}
		med.Branches = append(med.Branches, branch)
	}

	med.Post = clonePost(qc.post)
	med.UnionAll = qc.aggregated
	if !qc.aggregated {
		if len(med.Branches) == 1 {
			// Attach ORDER BY / LIMIT / DISTINCT directly to the lone
			// branch, with ORDER BY keys converted into the receiver
			// context like every other value.
			b := med.Branches[0]
			ord, err := qc.emitOrder(sols[0])
			if err != nil {
				return nil, err
			}
			b.OrderBy = ord
			b.Limit = sel.Limit
			b.Distinct = sel.Distinct
		} else if len(sel.OrderBy) > 0 || sel.Limit >= 0 {
			// Ordering and truncation must run over the whole union.
			ord, err := qc.postOrder(sel)
			if err != nil {
				return nil, err
			}
			items := make([]sqlparse.SelectItem, len(qc.outItems))
			for i, it := range qc.outItems {
				items[i] = sqlparse.SelectItem{Expr: &sqlparse.ColRef{Column: it.name}}
			}
			med.Post = &sqlparse.Select{Items: items, OrderBy: ord, Limit: sel.Limit}
		}
	}
	stmts := make([]sqlparse.Statement, len(med.Branches))
	for i, b := range med.Branches {
		stmts[i] = b
	}
	med.Mediated = sqlparse.UnionAll(stmts)
	return med, nil
}
