package wrapper

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/relalg"
	"repro/internal/store"
)

// Relational wraps an in-memory database as a full-capability source: it
// evaluates selections and projections remotely (i.e. inside the source),
// accepts IN-list disjunctions (so the engine can batch bind-join probes),
// and uses point indexes for equality and IN filters when available. It
// stands in for the paper's Oracle source.
type Relational struct {
	DB *store.DB
	// CostParams defaults to a LAN-ish profile when zero.
	CostParams Cost
	// BatchSize is the advertised IN-list width; zero means
	// DefaultBatchSize.
	BatchSize int
	// Require declares per-relation required bindings, simulating a
	// form-like relational endpoint (a stored procedure or keyed API)
	// that only answers when the listed columns are constrained. The
	// planner then feeds those columns through bind joins — which, since
	// the source is InList-capable, arrive batched.
	Require map[string][]string

	// distinct caches per-column distinct counts (Statser), invalidated
	// by table growth.
	distinctMu sync.Mutex
	distinct   map[string]distinctEntry
}

type distinctEntry struct{ rows, distinct int }

// NewRelational wraps a database.
func NewRelational(db *store.DB) *Relational {
	return &Relational{DB: db, CostParams: Cost{PerQuery: 10, PerTuple: 0.1}}
}

// Source implements Wrapper.
func (r *Relational) Source() string { return r.DB.Name }

// Relations implements Wrapper.
func (r *Relational) Relations() []string { return r.DB.TableNames() }

// Schema implements Wrapper.
func (r *Relational) Schema(relation string) (relalg.Schema, error) {
	t, err := r.DB.Table(relation)
	if err != nil {
		return relalg.Schema{}, err
	}
	return t.Schema, nil
}

// relationalMaxPartitions is the partition fan-out a Relational source
// advertises: the in-process store can slice a scan at any row, so the
// cap only bounds how many concurrent range queries one scan may become.
const relationalMaxPartitions = 64

// Capabilities implements Wrapper: a relational source does everything,
// including IN-list filters (batched bind-join probes) and
// range-partitioned scans (parallel scan fan-out).
func (r *Relational) Capabilities(relation string) (Capabilities, error) {
	if _, err := r.DB.Table(relation); err != nil {
		return Capabilities{}, err
	}
	return Capabilities{
		Selection:        true,
		Projection:       true,
		InList:           true,
		BatchSize:        r.BatchSize,
		RequiredBindings: append([]string(nil), r.Require[relation]...),
		Partitions:       relationalMaxPartitions,
	}, nil
}

// EstimateRows implements Wrapper. The store is in-process, so the
// answer is exact and the probe context is never consulted.
func (r *Relational) EstimateRows(_ context.Context, relation string) int {
	t, err := r.DB.Table(relation)
	if err != nil {
		return 0
	}
	return t.Len()
}

// Cost implements Wrapper.
func (r *Relational) Cost() Cost {
	if r.CostParams == (Cost{}) {
		return Cost{PerQuery: 10, PerTuple: 0.1}
	}
	return r.CostParams
}

// DistinctCount implements the optional Statser extension: the number of
// distinct values in a column, computed from the table and cached until
// the table's cardinality changes.
func (r *Relational) DistinctCount(_ context.Context, relation, column string) (int, bool) {
	t, err := r.DB.Table(relation)
	if err != nil {
		return 0, false
	}
	ci := t.Schema.Index(column)
	if ci < 0 {
		return 0, false
	}
	rows := t.Len()
	key := relation + "\x00" + column
	r.distinctMu.Lock()
	if e, ok := r.distinct[key]; ok && e.rows == rows {
		r.distinctMu.Unlock()
		return e.distinct, true
	}
	r.distinctMu.Unlock()
	seen := map[string]bool{}
	for _, tup := range t.Scan().Tuples {
		seen[tup[ci].Key()] = true
	}
	n := len(seen)
	r.distinctMu.Lock()
	if r.distinct == nil {
		r.distinct = map[string]distinctEntry{}
	}
	r.distinct[key] = distinctEntry{rows: rows, distinct: n}
	r.distinctMu.Unlock()
	return n, true
}

// scanFor snapshots the candidate rows for q — an index lookup when the
// first indexed equality (or IN-list) filter allows it, a full scan
// otherwise — along with the filters still to apply. An indexed IN
// concatenates the per-value lookups in list order; equality on distinct
// values partitions, so no row repeats.
func (r *Relational) scanFor(q SourceQuery) (*relalg.Relation, []Filter, error) {
	t, err := r.DB.Table(q.Relation)
	if err != nil {
		return nil, nil, err
	}
	if q.Partitions > 1 {
		// A partitioned query answers one contiguous range of the base
		// scan order, so the parts concatenate to exactly the
		// unpartitioned scan. Index lookups reorder rows and are skipped:
		// every filter is applied to the sliced range instead.
		base := t.Scan()
		lo, hi := PartitionRange(len(base.Tuples), q.Partitions, q.Partition)
		part := relalg.NewRelation(q.Relation, base.Schema)
		part.Tuples = base.Tuples[lo:hi]
		return part, q.Filters, nil
	}
	var rel *relalg.Relation
	used := -1
	for i, f := range q.Filters {
		if !t.HasIndex(f.Column) {
			continue
		}
		vals := f.Values
		if f.Op == "=" {
			vals = []relalg.Value{f.Value}
		} else if f.Op != OpIn {
			continue
		}
		rel = relalg.NewRelation(q.Relation, t.Schema)
		seen := map[string]bool{}
		for _, v := range vals {
			key, ok := store.IndexKey(v)
			if !ok || seen[key] {
				continue
			}
			seen[key] = true
			part, err := t.Lookup(f.Column, v)
			if err != nil {
				return nil, nil, err
			}
			rel.Tuples = append(rel.Tuples, part.Tuples...)
		}
		used = i
		break
	}
	if rel == nil {
		rel = t.Scan()
	}
	rest := make([]Filter, 0, len(q.Filters))
	for i, f := range q.Filters {
		if i != used {
			rest = append(rest, f)
		}
	}
	return rel, rest, nil
}

// checkRequire enforces the relation's declared required bindings, the
// way the Web wrapper does through CheckRequiredBindings: a form-like
// endpoint must not silently answer an unconstrained query with a full
// scan.
func (r *Relational) checkRequire(q SourceQuery) error {
	if len(r.Require[q.Relation]) == 0 {
		return nil
	}
	caps, err := r.Capabilities(q.Relation)
	if err != nil {
		return err
	}
	_, err = CheckRequiredBindings(caps, q)
	return err
}

// Query implements Wrapper by draining QueryStream.
func (r *Relational) Query(ctx context.Context, q SourceQuery) (*relalg.Relation, error) {
	st, err := r.QueryStream(ctx, q)
	if err != nil {
		return nil, err
	}
	return Drain(q.Relation, st)
}

// QueryStream implements Streamer: the raw reader is a snapshot of the
// candidate rows (scanFor), and the cursor applies the remaining filters
// and the projection as the engine pulls, so an engine-side early exit
// (LIMIT) stops the transfer after O(limit) tuples instead of shipping
// the whole answer.
func (r *Relational) QueryStream(ctx context.Context, q SourceQuery) (TupleStream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := r.checkRequire(q); err != nil {
		return nil, err
	}
	rel, rest, err := r.scanFor(q)
	if err != nil {
		return nil, err
	}
	st, err := NewCursor(ctx, NewRelationStream(rel), rest, q.Columns)
	if err != nil {
		return nil, fmt.Errorf("wrapper: source %s: %w", r.Source(), err)
	}
	return st, nil
}
