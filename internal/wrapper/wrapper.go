// Package wrapper implements the wrapper layer of Figure 1: a uniform
// protocol by which the multi-database access engine reaches every source.
// Wrappers are "not merely communication gateways": they provide schema
// service, a (restricted) SQL-ish query interface, and deliver answers as
// relational tables, for on-line databases and semi-structured Web sites
// alike.
//
// Five backends speak the protocol. Web (here) executes the declarative
// wrapping specifications of [Qu96]-style transition networks plus
// regular expressions against internal/web sites and answers whole
// relations. The other four stream, and share one engine-facing cursor
// (stream.go): Relational (here, over internal/store databases, standing
// in for the paper's Oracle source), filesrc (CSV/JSON files), sqlsrc
// (database/sql) and restsrc (paginated JSON over HTTP). Each of them
// supplies a RawReader — one method that reads blocks of rows from its
// source: a snapshot slice, a file decode, a sql.Rows sweep, a page
// fetch — and hands NewCursor the filters and columns it did not push
// down. The cursor owns everything between that reader and the engine:
// the context check per block, selection, projection, holding an error
// back behind rows already read, the per-tuple view, and Drain, which is
// every streaming backend's Query. A new backend therefore writes its
// Capabilities (what it pushes down), its pushdown compilation, and one
// RawReader; it writes no Next, no filter loop and no drain.
package wrapper

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/relalg"
)

// OpIn is the disjunctive-equality filter operator: `column IN (v1..vk)`.
// The engine's bind-join batching sends one OpIn filter carrying a batch
// of feeder values instead of one equality query per value; only sources
// whose Capabilities report InList receive it.
const OpIn = "in"

// Filter is a conjunctive selection the engine asks a wrapper to apply:
// column op constant. Op is one of = <> < <= > >= or OpIn ("in"), which
// matches when the column equals any element of Values (Value is unused
// then).
type Filter struct {
	Column string
	Op     string
	Value  relalg.Value
	// Values carries the constants of an OpIn filter.
	Values []relalg.Value
}

// Compile resolves the filter operator once, returning the per-value
// predicate of the filter, which Matcher (and through it ApplyFilters and
// every stream) applies row by row. A comparison follows
// relalg.Comparison, the rule the engine's own selections apply, so a
// filter means the same pushed down or run locally. An unknown operator
// errors on first use, not at compile time. All-string IN lists — the
// shape bind-join batching produces — probe a set instead of scanning the
// value list per row.
func (f Filter) Compile() func(relalg.Value) (bool, error) {
	if f.Op == OpIn {
		allStr := len(f.Values) > 0
		for _, c := range f.Values {
			if c.K != relalg.KindString {
				allStr = false
				break
			}
		}
		if allStr {
			set := make(map[string]struct{}, len(f.Values))
			for _, c := range f.Values {
				set[c.S] = struct{}{}
			}
			return func(v relalg.Value) (bool, error) {
				if v.K != relalg.KindString {
					return false, nil
				}
				_, ok := set[v.S]
				return ok, nil
			}
		}
		vals := f.Values
		return func(v relalg.Value) (bool, error) {
			for _, c := range vals {
				if v.Equal(c) {
					return true, nil
				}
			}
			return false, nil
		}
	}
	if cmp := relalg.Comparison(f.Op); cmp != nil {
		c := f.Value
		return func(v relalg.Value) (bool, error) { return cmp(v, c), nil }
	}
	err := fmt.Errorf("wrapper: unknown filter operator %q", f.Op)
	return func(relalg.Value) (bool, error) { return false, err }
}

// SourceQuery is a single-relation query in the wrapper protocol.
type SourceQuery struct {
	Relation string
	// Columns is the projection; nil keeps every column.
	Columns []string
	// Filters are selections. Wrappers whose capabilities lack Selection
	// only honor equality filters on their required bindings and ignore
	// the rest (the engine compensates locally).
	Filters []Filter
}

// Canonical renders the query as a deterministic string key: identical
// queries — regardless of filter order or of the order of values inside
// an IN list (both are conjunction/disjunction-insensitive) — map to the
// same key. The engine's session result cache and single-flight
// deduplication key on it (prefixed with the source name). Projection
// column order is significant and preserved: it changes the result.
func (q SourceQuery) Canonical() string {
	var b strings.Builder
	b.WriteString(q.Relation)
	b.WriteByte('\x00')
	for _, c := range q.Columns {
		b.WriteString(c)
		b.WriteByte('\x01')
	}
	b.WriteByte('\x00')
	enc := make([]string, len(q.Filters))
	for i, f := range q.Filters {
		var fb strings.Builder
		fb.WriteString(f.Column)
		fb.WriteByte('\x02')
		fb.WriteString(f.Op)
		fb.WriteByte('\x02')
		if f.Op == OpIn {
			vals := make([]string, len(f.Values))
			for j, v := range f.Values {
				vals[j] = v.Key()
			}
			sort.Strings(vals)
			for _, v := range vals {
				fb.WriteString(v)
				fb.WriteByte('\x03')
			}
		} else {
			fb.WriteString(f.Value.Key())
		}
		enc[i] = fb.String()
	}
	sort.Strings(enc)
	for _, e := range enc {
		b.WriteString(e)
		b.WriteByte('\x01')
	}
	return b.String()
}

// Capabilities describe what a source can do remotely; the planner plans
// around them.
type Capabilities struct {
	// Selection: the source evaluates arbitrary Filters remotely.
	Selection bool
	// Projection: the source projects columns remotely.
	Projection bool
	// InList: the source accepts OpIn filters, so the engine may batch a
	// bind join into ⌈N/BatchSize⌉ IN-list queries instead of N equality
	// probes.
	InList bool
	// BatchSize caps the values per IN-list query; zero means
	// DefaultBatchSize.
	BatchSize int
	// RequiredBindings lists columns that must be constrained by equality
	// before the source can answer at all (a Web form page): the planner
	// must feed them from constants or from an already-fetched relation
	// (a dependent, "bind" join).
	RequiredBindings []string
}

// DefaultBatchSize is the IN-list batch width used when an InList-capable
// source does not state its own.
const DefaultBatchSize = 16

// Cost carries the communication-cost parameters of a source, in abstract
// units the planner sums (the paper's engine plans "taking into account
// the sources capabilities as well as the execution and communication
// costs").
type Cost struct {
	// PerQuery is the fixed overhead of one remote query.
	PerQuery float64
	// PerTuple is the transfer cost per result tuple.
	PerTuple float64
	// MaxConcurrent bounds the queries the engine keeps in flight against
	// the source at once (its dispatcher pool size); zero means the
	// engine's default.
	MaxConcurrent int
}

// Wrapper is the uniform source interface.
type Wrapper interface {
	// Source names the wrapped source.
	Source() string
	// Relations lists the relations the source exports, sorted.
	Relations() []string
	// Schema returns a relation's schema (the dictionary service).
	Schema(relation string) (relalg.Schema, error)
	// Capabilities describes the per-relation query power.
	Capabilities(relation string) (Capabilities, error)
	// EstimateRows guesses a relation's cardinality for the cost model.
	// The context bounds any probe the estimate costs (a COUNT(*) against
	// a live server): it is the planning session's context, so killing
	// the session also stops its stat probes. Estimation stays
	// best-effort — a canceled probe degrades the estimate, never fails
	// planning.
	EstimateRows(ctx context.Context, relation string) int
	// Cost returns the source's communication-cost parameters.
	Cost() Cost
	// Query executes a source query and returns a relation whose columns
	// use the relation's plain (unqualified) names. The context bounds
	// the fetch: a canceled or expired context aborts remote work (page
	// fetches, scans) promptly with ctx.Err().
	Query(ctx context.Context, q SourceQuery) (*relalg.Relation, error)
}

// Statser is an optional Wrapper extension exposing column statistics.
// Sources that know their data (the relational wrapper; a real DBMS's
// dictionary) answer distinct counts, which the planner's cost model
// turns into join selectivities (1/max(distinct)) instead of a fixed
// guess. Wrappers without statistics simply do not implement it.
type Statser interface {
	// DistinctCount returns the number of distinct values of a column,
	// ok=false when unknown. Like EstimateRows, the context bounds any
	// probe behind the answer.
	DistinctCount(ctx context.Context, relation, column string) (int, bool)
}

// ApplyFilters evaluates filters over a relation locally; wrappers use it
// to honor Selection capability, and the engine uses it to compensate for
// sources without it.
func ApplyFilters(rel *relalg.Relation, filters []Filter) (*relalg.Relation, error) {
	if len(filters) == 0 {
		return rel, nil
	}
	match, err := Matcher(rel.Schema, filters)
	if err != nil {
		return nil, err
	}
	out := relalg.NewRelation(rel.Name, rel.Schema)
	for _, t := range rel.Tuples {
		keep, err := match(t)
		if err != nil {
			return nil, err
		}
		if keep {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out, nil
}

// resolveProjection resolves column names against a schema once,
// returning their positions and the projected schema. ProjectColumns and
// the stream cursor share it.
func resolveProjection(schema relalg.Schema, columns []string) ([]int, relalg.Schema, error) {
	idx := make([]int, len(columns))
	cols := make([]relalg.Column, len(columns))
	for i, c := range columns {
		ci := schema.Index(c)
		if ci < 0 {
			return nil, relalg.Schema{}, fmt.Errorf("wrapper: projection of unknown column %s", c)
		}
		idx[i] = ci
		cols[i] = schema.Columns[ci]
	}
	return idx, relalg.Schema{Columns: cols}, nil
}

// ProjectColumns keeps the named columns (in the given order).
func ProjectColumns(rel *relalg.Relation, columns []string) (*relalg.Relation, error) {
	if len(columns) == 0 {
		return rel, nil
	}
	idx, schema, err := resolveProjection(rel.Schema, columns)
	if err != nil {
		return nil, err
	}
	out := relalg.NewRelation(rel.Name, schema)
	for _, t := range rel.Tuples {
		row := make(relalg.Tuple, len(idx))
		for i, ci := range idx {
			row[i] = t[ci]
		}
		out.Tuples = append(out.Tuples, row)
	}
	return out, nil
}

// CheckRequiredBindings verifies that every required binding has an
// equality (or non-empty IN-list) filter, returning the equality-bound
// values by column. An IN filter satisfies the requirement but
// contributes no entry to the map — single-value wrappers (Web URL
// templates) substitute from the map, and the engine only sends IN lists
// to sources whose capabilities advertise InList.
func CheckRequiredBindings(caps Capabilities, q SourceQuery) (map[string]relalg.Value, error) {
	bound := map[string]relalg.Value{}
	covered := map[string]bool{}
	for _, f := range q.Filters {
		if f.Op == "=" {
			bound[f.Column] = f.Value
			covered[f.Column] = true
		}
		if f.Op == OpIn && len(f.Values) > 0 {
			covered[f.Column] = true
		}
	}
	var missing []string
	for _, rb := range caps.RequiredBindings {
		if !covered[rb] {
			missing = append(missing, rb)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("wrapper: relation %s requires bindings for %v", q.Relation, missing)
	}
	return bound, nil
}
