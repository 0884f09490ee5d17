// Package planner implements the multi-database access engine of Figure 1:
// a front end of dictionary and query services over the wrapped sources.
// It plans multi-source queries around each source's capabilities
// (selection/projection power, required bindings) and communication costs,
// controls execution of the resulting plan, and performs the operations
// sources cannot — cross-source joins, residual predicates, aggregation —
// locally using internal/relalg, buffering pipeline breakers in memory.
//
// Execution is streaming: a BranchPlan compiles to a pull-based iterator
// tree (BuildStream) whose leaves fetch from the wrappers tuple by tuple,
// so early exits (LIMIT, lazily-consumed mediation branches) stop pulling
// from the sources instead of materializing every intermediate result.
//
// Planning is cost-based and adaptive: the logical query graph
// (logical.go) feeds a Selinger-style left-deep enumerator (optimize.go)
// priced by a cost model (cost.go) over statistics learned from actual
// executions (stats.go); EXPLAIN ANALYZE (analyze.go, plan.go) renders
// estimated-vs-measured rows, queries and cost per plan step.
package planner

import (
	"fmt"
	"sort"

	"repro/internal/relalg"
	"repro/internal/wrapper"
)

// Catalog is the dictionary service: it maps every exported relation to
// the wrapper serving it and answers schema questions.
type Catalog struct {
	sources   map[string]wrapper.Wrapper
	relSource map[string]string
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{sources: map[string]wrapper.Wrapper{}, relSource: map[string]string{}}
}

// AddSource registers a wrapper and all relations it exports. Relation
// names must be globally unique across sources (the paper's queries are
// source-qualified through unique relation names such as r1, r2, r3).
func (c *Catalog) AddSource(w wrapper.Wrapper) error {
	name := w.Source()
	if _, dup := c.sources[name]; dup {
		return fmt.Errorf("planner: source %s already registered", name)
	}
	for _, rel := range w.Relations() {
		if owner, dup := c.relSource[rel]; dup {
			return fmt.Errorf("planner: relation %s exported by both %s and %s", rel, owner, name)
		}
	}
	c.sources[name] = w
	for _, rel := range w.Relations() {
		c.relSource[rel] = name
	}
	return nil
}

// MustAddSource is AddSource that panics; for fixtures.
func (c *Catalog) MustAddSource(w wrapper.Wrapper) {
	if err := c.AddSource(w); err != nil {
		panic(err)
	}
}

// WrapperFor returns the wrapper serving a relation.
func (c *Catalog) WrapperFor(relation string) (wrapper.Wrapper, error) {
	src, ok := c.relSource[relation]
	if !ok {
		return nil, fmt.Errorf("planner: no source exports relation %s", relation)
	}
	return c.sources[src], nil
}

// Schema returns a relation's schema.
func (c *Catalog) Schema(relation string) (relalg.Schema, error) {
	w, err := c.WrapperFor(relation)
	if err != nil {
		return relalg.Schema{}, err
	}
	return w.Schema(relation)
}

// Relations lists every exported relation, sorted.
func (c *Catalog) Relations() []string {
	out := make([]string, 0, len(c.relSource))
	for r := range c.relSource {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// SourceOf names the source exporting a relation.
func (c *Catalog) SourceOf(relation string) (string, bool) {
	s, ok := c.relSource[relation]
	return s, ok
}
