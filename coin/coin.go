// Package coin is the public API of the COntext INterchange mediator
// reproduction: one System value wires together the domain registry
// (semantic types, contexts, elevation axioms, conversion functions), the
// wrapped sources, the context mediator and the multi-database execution
// engine, and exposes query services equivalent to the prototype's, one
// door per kind of result: Mediate (mediate only), Run (rows of a query,
// mediated and executed, or naive execution for comparison, under a
// context and per-query limits), Plan (the EXPLAIN or EXPLAIN ANALYZE
// text), and an HTTP handler speaking the prototype's tunneled access
// protocol.
//
// Quick start (the paper's Section 3 example ships pre-wired):
//
//	sys := coin.Figure2System()
//	med, _ := sys.Mediate(coin.PaperQ1, "c2")
//	fmt.Println(med.SQL())                       // the 3-branch union
//	rows, _ := sys.Query(coin.PaperQ1, "c2")     // <NTT, 9600000>
//	fmt.Println(rows)
package coin

import (
	"context"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/fixture"
	"repro/internal/planner"
	"repro/internal/relalg"
	"repro/internal/server"
	"repro/internal/sqlparse"
	"repro/internal/store"
	"repro/internal/wrapper"
)

// Re-exported knowledge-model types, so applications only import this
// package.
type (
	// Model is the shared domain model of semantic types.
	Model = domain.Model
	// SemType is a semantic type with context-dependent modifiers.
	SemType = domain.SemType
	// Context is a context theory (modifier assignments).
	Context = domain.Context
	// ModifierDecl assigns one modifier within a context.
	ModifierDecl = domain.ModifierDecl
	// Case is one conditional arm of a ModifierDecl.
	Case = domain.Case
	// ValueSpec locates a modifier value (constant or attribute).
	ValueSpec = domain.ValueSpec
	// Elevation ties a source relation's columns to semantic types.
	Elevation = domain.Elevation
	// ElevatedColumn is one column-to-type axiom.
	ElevatedColumn = domain.ElevatedColumn
	// Conversion converts values between modifier settings.
	Conversion = domain.Conversion
	// Mediation is a rewritten query (see System.Mediate).
	Mediation = core.Mediation
	// Relation is a materialized query answer.
	Relation = relalg.Relation
	// Schema describes a relation.
	Schema = relalg.Schema
	// Column is one attribute of a schema.
	Column = relalg.Column
	// Value is one typed datum.
	Value = relalg.Value
	// DB is an in-memory relational source.
	DB = store.DB
	// WrapSpec is a compiled Web-wrapping specification.
	WrapSpec = wrapper.Spec
	// ExecStats counts source queries and transferred tuples.
	ExecStats = planner.ExecStats
	// Warning records one mediation branch dropped by a partial-results
	// run (see QueryOptions.PartialResults).
	Warning = planner.Warning
)

// Re-exported constructors.
var (
	// NewModel creates an empty domain model.
	NewModel = domain.NewModel
	// NewContext creates an empty context theory.
	NewContext = domain.NewContext
	// ConstSpec builds a constant modifier value.
	ConstSpec = domain.ConstSpec
	// AttrSpec builds an attribute-valued modifier value.
	AttrSpec = domain.AttrSpec
	// RatioConversion is the multiplicative (scale-factor) conversion.
	RatioConversion = domain.RatioConversion
	// LookupConversion converts through an ancillary rate relation.
	LookupConversion = domain.LookupConversion
	// PivotLookupConversion adds a two-hop fallback through a pivot.
	PivotLookupConversion = domain.PivotLookupConversion
	// AffineConversion is a fixed linear conversion (units).
	AffineConversion = domain.AffineConversion
	// NewDB creates an in-memory relational source.
	NewDB = store.NewDB
	// ParseWrapSpec compiles a Web-wrapping specification.
	ParseWrapSpec = wrapper.ParseSpec
	// NumV, StrV, BoolV build typed values.
	NumV = relalg.NumV
	StrV = relalg.StrV
	// PaperQ1 is the paper's Section 3 query.
	PaperQ1 = fixture.PaperQ1
)

// System is the assembled mediator installation.
type System struct {
	Registry *domain.Registry
	Catalog  *planner.Catalog

	mediator *core.Mediator
	executor *planner.Executor
}

// New creates a System over a domain model.
func New(model *Model) *System {
	reg := domain.NewRegistry(model)
	cat := planner.NewCatalog()
	return &System{
		Registry: reg,
		Catalog:  cat,
		mediator: core.New(reg),
		executor: planner.NewExecutor(cat),
	}
}

// AddContext registers a context theory.
func (s *System) AddContext(c *Context) error { return s.Registry.AddContext(c) }

// AddRelationalSource wraps an in-memory database as a source and
// registers every table, with elevation axioms per relation (nil values
// mean the relation is context-free, like an ancillary source).
func (s *System) AddRelationalSource(db *DB, elevations map[string]*Elevation) error {
	w := wrapper.NewRelational(db)
	return s.addSource(w, elevations)
}

// AddWebSource wraps a site with wrapping specs and registers the
// relations they export.
func (s *System) AddWebSource(name string, site wrapper.Fetcher, specs []*WrapSpec, elevations map[string]*Elevation) error {
	w := wrapper.NewWeb(name, site, specs...)
	return s.addSource(w, elevations)
}

func (s *System) addSource(w wrapper.Wrapper, elevations map[string]*Elevation) error {
	if err := s.Catalog.AddSource(w); err != nil {
		return err
	}
	for _, rel := range w.Relations() {
		schema, err := w.Schema(rel)
		if err != nil {
			return err
		}
		if err := s.Registry.RegisterRelation(rel, schema, elevations[rel]); err != nil {
			return err
		}
	}
	s.mediator.Invalidate()
	return nil
}

// AddAncillary maps a conversion-support predicate (e.g. "rate") onto a
// registered relation.
func (s *System) AddAncillary(pred, relation string) error {
	if err := s.Registry.AddAncillary(pred, relation); err != nil {
		return err
	}
	s.mediator.Invalidate()
	return nil
}

// AddDenial registers an integrity constraint over source data (datalog
// conjunction text, relation names as predicates); mediation cases that
// definitely violate it are pruned. See domain.Registry.AddDenialText.
func (s *System) AddDenial(body string) error {
	if err := s.Registry.AddDenialText(body); err != nil {
		return err
	}
	s.mediator.Invalidate()
	return nil
}

// Mediate rewrites SQL posed in the receiver context without executing it.
func (s *System) Mediate(sql, receiver string) (*Mediation, error) {
	return s.mediator.MediateSQL(sql, receiver)
}

// Query mediates and executes sql under a background context and zero
// limits, returning the answer in the receiver's context.
func (s *System) Query(sql, receiver string) (*Relation, error) {
	med, err := s.Mediate(sql, receiver)
	if err != nil {
		return nil, err
	}
	//lint:allow ctxflow context-free facade: a public entry point is where a root context is minted; governed callers use Run
	rel, _, err := s.ExecuteWarnCtx(context.Background(), med, QueryOptions{})
	return rel, err
}

// Explain is Plan's EXPLAIN under a background context and zero limits.
func (s *System) Explain(sql, receiver string) (string, error) {
	//lint:allow ctxflow facade one-liner: a public entry point is where a root context is minted; governed callers use Plan
	return s.Plan(context.Background(), sql, receiver, false, QueryOptions{})
}

// Plan mediates the query and renders the multi-database engine's
// execution plan for every branch under ctx and opts: access order, pushed
// vs local filters, bind joins feeding Web-source required bindings, join
// keys and cost estimates. Plain EXPLAIN executes nothing, but planning
// may probe live sources for statistics under ctx.
//
// With analyze set it is EXPLAIN ANALYZE: every branch actually executes in
// a session governed by opts, with measurement wired through the pipeline,
// and each plan is rendered with estimated-vs-actual rows, source queries
// and cost per step (the est_rows / act_rows columns). The run feeds the
// adaptive statistics like any execution, so an EXPLAIN ANALYZE followed
// by EXPLAIN shows the optimizer learning. Under opts.PartialResults a
// branch felled by a source fault is reported as dropped and the others
// are still rendered.
func (s *System) Plan(ctx context.Context, sql, receiver string, analyze bool, opts QueryOptions) (string, error) {
	med, err := s.Mediate(sql, receiver)
	if err != nil {
		return "", err
	}
	verb, produce := "planning", func(sess *planner.Session, br *sqlparse.Select) (*planner.BranchPlan, error) {
		return s.executor.PlanCtx(sess.Context(), br)
	}
	if analyze {
		verb, produce = "analyzing", s.executor.AnalyzeSelect
	}
	sess := s.executor.NewSession(ctx, opts)
	defer sess.Close()
	var b strings.Builder
	fmt.Fprintf(&b, "mediated into %d branch(es)\n", len(med.Branches))
	for i, br := range med.Branches {
		plan, err := produce(sess, br)
		if err != nil {
			if opts.PartialResults && planner.Degradable(err) {
				// Mirror execution's degradation: the branch is reported as
				// dropped, the remaining branches still get rendered.
				fmt.Fprintf(&b, "branch %d: %s\n  FAILED: %v (branch dropped; partial results)\n",
					i+1, br.String(), err)
				continue
			}
			return "", fmt.Errorf("coin: %s branch %d: %w", verb, i+1, err)
		}
		fmt.Fprintf(&b, "branch %d: %s\n%s", i+1, br.String(), plan.Explain())
	}
	if med.Post != nil {
		b.WriteString("post: aggregation/ordering over the union\n")
	}
	return b.String(), nil
}

// Executor exposes the engine (for stats and ablation toggles).
func (s *System) Executor() *planner.Executor { return s.executor }

// Mediator exposes the mediator (for branch bounds and cache control).
func (s *System) Mediator() *core.Mediator { return s.mediator }

// Contexts lists the registered context names.
func (s *System) Contexts() []string { return s.Registry.ContextNames() }

// Relations lists every queryable relation.
func (s *System) Relations() []string { return s.Catalog.Relations() }

// Schema returns a relation's schema.
func (s *System) Schema(relation string) (Schema, error) {
	return s.Catalog.Schema(relation)
}

// Handler serves the mediation services over HTTP: the tunneled
// ODBC-style protocol under /api/ (including the NDJSON streaming wire
// path at /api/query/stream) and the QBE form under /qbe. Every query a
// handler runs is bound to its HTTP request's context, so disconnected
// receivers stop consuming the sources.
func (s *System) Handler() http.Handler { return server.New(serverView{s}) }

// serverView adapts System to server.Service: Run's *RowStream returned
// as the server's RowStream interface, over a tree whose rows live one
// batch (server.RowStream's contract); everything else System implements
// directly.
type serverView struct{ *System }

func (v serverView) QueryStream(ctx context.Context, sql, receiver string, naive bool, opts QueryOptions) (server.RowStream, error) {
	rs, err := v.run(ctx, sql, receiver, naive, opts, true)
	if err != nil {
		return nil, err
	}
	return rs, nil
}

// Figure2System wires the complete running example of the paper: sources
// 1 and 2 as relational databases, the currency-exchange Web site wrapped
// by a [Qu96]-style specification, contexts c1 and c2, and the domain
// model with the scaleFactor and currency conversions.
func Figure2System() *System {
	return Figure2SystemWith(fixtureCurrencySite())
}

// Figure2SystemWith is Figure2System with the currency-exchange site
// served through the given fetcher instead of the built-in simulation —
// point it at a live HTTP site (wrapper.NewHTTPFetcher) or at a failing
// fetcher to demonstrate partial-results degradation.
func Figure2SystemWith(currency wrapper.Fetcher) *System {
	sys := New(fixture.Model())
	must := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("coin: building Figure2System: %v", err))
		}
	}
	must(sys.AddContext(fixture.ContextC1()))
	must(sys.AddContext(fixture.ContextC2()))

	dbs := fixture.Databases()
	must(sys.AddRelationalSource(dbs["source1"], map[string]*Elevation{
		"r1": {
			Relation: "r1",
			Context:  "c1",
			Columns: []ElevatedColumn{
				{Column: "cname", SemType: "companyName"},
				{Column: "revenue", SemType: "companyFinancials"},
			},
		},
	}))
	must(sys.AddRelationalSource(dbs["source2"], map[string]*Elevation{
		"r2": {
			Relation: "r2",
			Context:  "c2",
			Columns: []ElevatedColumn{
				{Column: "cname", SemType: "companyName"},
				{Column: "expenses", SemType: "companyFinancials"},
			},
		},
	}))

	must(sys.AddWebSource("currencyweb", currency,
		[]*WrapSpec{wrapper.MustParseSpec(wrapper.CurrencySpecCrawl)}, nil))
	must(sys.AddAncillary("rate", "r3"))
	return sys
}
