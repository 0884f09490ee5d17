package relalg

// This file defines the pull-based (Volcano-style) iterator execution
// model. Every physical operator of the engine is a streaming Iterator
// (this file and iterops.go); Collect drains a tree into a materialized
// *Relation. The planner composes the iterators so that tuples flow
// through a branch plan in batches and a LIMIT (or any other early exit)
// stops pulling from the sources as soon as it is satisfied.
//
// # The Iterator contract
//
// An Iterator produces a finite stream of tuples, delivered in batches
// (see Batch), all conforming to the schema reported by Schema(). The
// life cycle is strict:
//
//  1. Schema() may be called at any time, including before Open; it is
//     cheap and must always return the same value.
//  2. Open(ctx) acquires resources and must be called exactly once before
//     the first Next(). The context bounds the whole run of the pipeline:
//     operators pass it to their children, leaves retain it and check it
//     while producing, and breakers check it while draining, so canceling
//     the context (or exceeding its deadline) makes Next return ctx.Err()
//     promptly even mid-stream (cancellation is observed per batch, not
//     per tuple). Opening is where pipeline breakers (Sort, GroupBy, the
//     build side of HashJoin) consume their children — Sort and the
//     build side buffer them in memory, GroupBy keeps one first row per
//     group; a non-breaker operator opens its children and does no tuple
//     work.
//  3. Next(max) returns a batch of 1..max(*) tuples while tuples remain,
//     then an empty batch once exhausted — an empty batch with a nil
//     error always and only means exhaustion, and an error always comes
//     with an empty batch. max <= 0 requests DefaultBatchSize. After Next
//     has returned an empty batch or an error, further calls keep
//     returning (empty, err?) — callers may rely on that but must not
//     rely on anything stronger. (*) Operators must never return more
//     than max rows — LIMIT and the governors rely on it to bound what
//     leaves pull from sources — but they return fewer freely: an
//     operator hands back what one child batch yielded rather than
//     looping to fill, so row-gated sources (and the wire path flushing
//     per batch) keep their streaming latency; the final batch of a
//     stream is ragged.
//  4. Close() releases resources. It must be called exactly once after
//     Open succeeded, even when Next returned an error; it closes the
//     operator's children. Close after a failed Open is a no-op: an
//     operator whose Open fails must release whatever it had already
//     acquired before returning the error.
//
// Batch ownership is asymmetric: the batch itself (the Rows slice) is
// valid only until the consumer's next call to Next or Close — producers
// reuse the backing array. The tuples inside are durable: operators
// either hand out freshly built tuples or tuples aliasing an underlying
// materialized relation, and never overwrite a tuple they have already
// handed out, so consumers that buffer tuples across calls (breakers do)
// keep them without cloning.
//
// Operators that accumulate an output batch across several child pulls
// (joins) flush before failing: when a child errors after rows were
// already assembled, they return the partial batch first and re-surface
// the error on the following call, so a mid-stream fault loses no rows
// that the tuple-at-a-time contract would have delivered.
//
// Iterators are single-use and not safe for concurrent use. A consumer
// that stops early (LIMIT) simply stops calling Next and calls Close;
// operators must tolerate being closed before exhaustion.

import (
	"context"
	"slices"
)

// Iterator is the pull-based batch stream every streaming operator
// implements. See the package comment above for the full contract.
type Iterator interface {
	// Schema describes the tuples this iterator produces.
	Schema() Schema
	// Open prepares the iterator (and its children) for Next calls. The
	// context bounds the pipeline's run; cancellation surfaces as an
	// error from Next (or from Open itself in pipeline breakers).
	Open(ctx context.Context) error
	// Next returns the next batch of at most max tuples (max <= 0:
	// DefaultBatchSize); an empty batch means the stream is done.
	Next(max int) (Batch, error)
	// Close releases resources; it closes children.
	Close() error
}

// Stager is the type of a retired, ignored parameter that NewHashJoin,
// NewParallelHashJoin (the serial join under its former exchange name),
// NewSort and NewGroupBy keep only because bench/ passes a positional nil
// there. Nothing implements it and every caller passes nil; it leaves
// with the next [benchmark] PR, as does NewParallelHashJoin.
type Stager interface {
	Stage(rel *Relation) (*Relation, error)
}

// RowCountHint is optionally implemented by iterators that know how many
// rows they will yield: exactly ScanIter, and SortIter and GroupByIter
// once Open has drained their input; the planner's scan leaves by their
// transfer estimate. Full drains (Collect, DISTINCT's key table) use it
// only to presize their buffers, so a wrong hint costs memory or a
// regrow, never correctness. It is queried after Open, through the
// forwarders above the reporter.
type RowCountHint interface {
	RowCountHint() int
}

// forwarder is implemented by the wrappers whose output rows are rows of
// one child, handed on uncopied: MarkTransient passes its mark through
// them, and presizeHint their child's hint, capped at most unless that is
// negative (LIMIT n caps it at n; a filter or DISTINCT, which may drop
// any row, at 0). A DeferredIter's child is nil before Open.
type forwarder interface {
	forward() (child Iterator, most int)
}

// maxHintRows caps how far a hint may presize a drain buffer: a wildly
// wrong estimate (a cold cost model) must not allocate unbounded memory
// up front. Past the cap, growth proceeds by the normal append ladder.
const maxHintRows = 1 << 20

// presizeHint returns the presize capacity for draining it, or 0.
func presizeHint(it Iterator) int {
	limit := maxHintRows
	for {
		if h, ok := it.(RowCountHint); ok {
			return max(0, min(h.RowCountHint(), limit))
		}
		f, ok := it.(forwarder)
		if !ok {
			return 0
		}
		var most int
		if it, most = f.forward(); most >= 0 {
			limit = min(limit, most)
		}
	}
}

// consume runs it through its full Open/Next/Close cycle under the
// contract checks of Checked, handing each batch to each, which must
// copy whatever it keeps of a row unless it is durable by contract. The
// loop checks ctx per batch, so a canceled context stops a breaker's
// buffering (and any other full drain) mid-way.
func consume(ctx context.Context, it Iterator, each func(Batch) error) error {
	it = Checked(it)
	if err := it.Open(ctx); err != nil {
		return err
	}
	for {
		b, err := Batch{}, ctx.Err()
		if err == nil {
			b, err = it.Next(DefaultBatchSize)
		}
		if err == nil && b.Empty() {
			return it.Close()
		}
		if err == nil {
			err = each(b)
		}
		if err != nil {
			it.Close()
			return err
		}
	}
}

// Collect drains it into a materialized relation named name. It runs the
// full Open/Next/Close cycle and is the bridge from the streaming world
// back to *Relation. The buffer is presized from the iterator's hint,
// read at the first batch: a DeferredIter knows its child's only once
// open, and a SortIter its count.
func Collect(ctx context.Context, it Iterator, name string) (*Relation, error) {
	out := NewRelation(name, it.Schema())
	err := consume(ctx, it, func(b Batch) error {
		if out.Tuples == nil {
			out.Tuples = make([]Tuple, 0, max(presizeHint(it), b.Len()))
		}
		if n := len(out.Tuples) + b.Len(); n > cap(out.Tuples) { // double: append's 1.25x steps re-copy a large result ~5 times
			out.Tuples = slices.Grow(out.Tuples, max(n, 2*cap(out.Tuples))-len(out.Tuples))
		}
		// The durable boundary: the root iterator owns no transient arena,
		// so its rows are durable by contract.
		out.Tuples = append(out.Tuples, b.Rows...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ScanIter streams the tuples of a materialized relation in order,
// serving each batch as a zero-copy subslice of the relation. It is the
// leaf of every iterator tree built over in-memory data; as a leaf it
// retains the Open context and checks it per batch.
type ScanIter struct {
	rel *Relation
	ctx context.Context
	pos int
}

// NewScan returns a scan over rel.
func NewScan(rel *Relation) *ScanIter { return &ScanIter{rel: rel} }

// Schema implements Iterator.
func (s *ScanIter) Schema() Schema { return s.rel.Schema }

// Open implements Iterator.
func (s *ScanIter) Open(ctx context.Context) error {
	s.ctx = ctx
	s.pos = 0
	return ctx.Err()
}

// Next implements Iterator.
func (s *ScanIter) Next(max int) (Batch, error) {
	if s.pos >= len(s.rel.Tuples) {
		return Batch{}, nil
	}
	if err := s.ctx.Err(); err != nil {
		return Batch{}, err
	}
	if max <= 0 {
		max = DefaultBatchSize
	}
	end := min(s.pos+max, len(s.rel.Tuples))
	b := Batch{Rows: s.rel.Tuples[s.pos:end]}
	s.pos = end
	return b, nil
}

// Close implements Iterator.
func (s *ScanIter) Close() error { return nil }

// RowCountHint implements RowCountHint: a scan's yield is exact.
func (s *ScanIter) RowCountHint() int { return len(s.rel.Tuples) }

// DeferredIter delays building its child until Open: the planner uses it
// to keep whole mediation branches unplanned and unexecuted until the
// consumer actually pulls from them (so an upstream LIMIT can skip later
// branches entirely). The Open context is handed to the build function so
// deferred work (bind-join fetches, feeder drains) stays cancellable.
type DeferredIter struct {
	schema    Schema
	build     func(ctx context.Context) (Iterator, error)
	child     Iterator
	transient bool // forward MarkTransient to the built child
}

// NewDeferred returns an iterator with the given schema whose child is
// built by build at Open time.
func NewDeferred(schema Schema, build func(ctx context.Context) (Iterator, error)) *DeferredIter {
	return &DeferredIter{schema: schema, build: build}
}

// Schema implements Iterator.
func (d *DeferredIter) Schema() Schema { return d.schema }

// Open implements Iterator.
func (d *DeferredIter) Open(ctx context.Context) error {
	child, err := d.build(ctx)
	if err != nil {
		return err
	}
	if d.transient {
		MarkTransient(child)
	}
	if err := child.Open(ctx); err != nil {
		return err
	}
	d.child = child
	return nil
}

// Next implements Iterator.
func (d *DeferredIter) Next(max int) (Batch, error) {
	if d.child == nil {
		return Batch{}, nil
	}
	return d.child.Next(max)
}

// Close implements Iterator.
func (d *DeferredIter) Close() error {
	if d.child == nil {
		return nil
	}
	err := d.child.Close()
	d.child = nil
	return err
}

func (d *DeferredIter) forward() (Iterator, int) { return d.child, -1 }

// RenameIter presents its child under a different schema (same arity and
// tuple contents; only column names change). The planner uses it to
// qualify source columns with their FROM-clause binding.
type RenameIter struct {
	child  Iterator
	schema Schema
}

// NewRename wraps child with the given schema.
func NewRename(child Iterator, schema Schema) *RenameIter {
	return &RenameIter{child: child, schema: schema}
}

// Schema implements Iterator.
func (r *RenameIter) Schema() Schema { return r.schema }

// Open implements Iterator.
func (r *RenameIter) Open(ctx context.Context) error { return r.child.Open(ctx) }

// Next implements Iterator.
func (r *RenameIter) Next(max int) (Batch, error) { return r.child.Next(max) }

// Close implements Iterator.
func (r *RenameIter) Close() error { return r.child.Close() }

func (r *RenameIter) forward() (Iterator, int) { return r.child, -1 }

// OnOpenIter invokes a callback the first time Open is called; the
// planner uses it to count how many branch pipelines actually start
// running (ExecStats.BranchesRun) under lazy evaluation.
type OnOpenIter struct {
	child Iterator
	fn    func()
}

// NewOnOpen wraps child so fn runs when the pipeline is opened.
func NewOnOpen(child Iterator, fn func()) *OnOpenIter {
	return &OnOpenIter{child: child, fn: fn}
}

// Schema implements Iterator.
func (o *OnOpenIter) Schema() Schema { return o.child.Schema() }

// Open implements Iterator.
func (o *OnOpenIter) Open(ctx context.Context) error {
	if o.fn != nil {
		o.fn()
		o.fn = nil
	}
	return o.child.Open(ctx)
}

// Next implements Iterator.
func (o *OnOpenIter) Next(max int) (Batch, error) { return o.child.Next(max) }

// Close implements Iterator.
func (o *OnOpenIter) Close() error { return o.child.Close() }

func (o *OnOpenIter) forward() (Iterator, int) { return o.child, -1 }
