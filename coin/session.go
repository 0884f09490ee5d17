package coin

// The query doors that return rows: Run, which streams them, and
// ExecuteWarnCtx, which collects a mediated answer. Every query runs inside
// a planner.Session — a context (cancellation + deadline) plus resource
// governors — so a receiver that disconnects, times out or exceeds its
// budgets stops consuming the sources promptly. Plan (coin.go) runs under
// the same sessions; Query and Explain there are one-liners with a
// background context and zero limits.

import (
	"context"

	"repro/internal/planner"
	"repro/internal/relalg"
	"repro/internal/sqlparse"
)

// QueryOptions bound one query session: a wall-clock timeout, a cap on
// result rows delivered (truncation), a cap on tuples transferred from
// sources (exceeding it aborts the query), a cap on the session's
// concurrent fetches per source (admission waits, it does not fail), a
// session-wide retry budget, and the PartialResults degradation switch
// (failed mediation branches are dropped with warnings instead of failing
// the query). The zero value is ungoverned and fail-fast.
type QueryOptions = planner.Limits

// Tuple is one result row.
type Tuple = relalg.Tuple

// start begins a query run, the one road every query door takes:
// a fresh session under ctx and opts, and the iterator tree that build
// compiles under it, capped by the MaxRows governor as a final LIMIT (the
// answer is truncated, not failed). A failed build closes the session;
// otherwise the caller owns it and must Close it.
func (s *System) start(ctx context.Context, opts QueryOptions, build func(*planner.Session) (relalg.Iterator, error)) (*planner.Session, relalg.Iterator, error) {
	sess := s.executor.NewSession(ctx, opts)
	it, err := build(sess)
	if err != nil {
		sess.Close()
		return nil, nil, err
	}
	if opts.MaxRows > 0 {
		it = relalg.NewLimit(it, opts.MaxRows)
	}
	return sess, it, nil
}

// ExecuteWarnCtx runs an already-mediated query under ctx and opts,
// additionally returning the degraded-branch warnings of a
// partial-results run (nil when the answer is complete — in particular,
// always nil unless opts.PartialResults is set).
func (s *System) ExecuteWarnCtx(ctx context.Context, med *Mediation, opts QueryOptions) (*Relation, []Warning, error) {
	sess, it, err := s.start(ctx, opts, func(sess *planner.Session) (relalg.Iterator, error) {
		return s.executor.MediationStream(sess, med)
	})
	if err != nil {
		return nil, nil, err
	}
	defer sess.Close()
	rel, err := relalg.Collect(sess.Context(), it, "")
	if err != nil {
		return nil, nil, err
	}
	return rel, sess.Warnings(), nil
}

// RowStream is an open, incrementally-consumable query answer: the
// streaming executor's iterator tree surfaced all the way to the
// receiver, so the first row is available before the sources have
// delivered the rest. Always Close it — Close releases the underlying
// source streams and cancels the query session (which stops any
// still-pending source work).
type RowStream struct {
	sess   *planner.Session
	it     relalg.Iterator
	med    *Mediation // nil for naive streams
	schema Schema
	closed bool
	buf    []relalg.Tuple // current batch, consumed row-at-a-time by Next
	pos    int
}

// Run opens a governed row stream over sql: the executing union of the
// branches sql mediates into in the receiver's context, or with naive set
// the statement as written (the paper's "incorrect answer" baseline; the
// receiver is then ignored). Rows are produced as the iterator tree yields
// them; an upstream LIMIT (or opts.MaxRows) stops source transfer early,
// and canceling ctx (or exceeding opts.Timeout) aborts the stream
// mid-flight, source fetches included.
func (s *System) Run(ctx context.Context, sql, receiver string, naive bool, opts QueryOptions) (*RowStream, error) {
	return s.run(ctx, sql, receiver, naive, opts, false)
}

// run is Run; with transient set its caller uses no row of a batch after
// the next call (server.RowStream's contract), so row arenas recycle.
func (s *System) run(ctx context.Context, sql, receiver string, naive bool, opts QueryOptions, transient bool) (*RowStream, error) {
	var med *Mediation
	if !naive {
		var err error
		if med, err = s.Mediate(sql, receiver); err != nil {
			return nil, err
		}
	}
	sess, it, err := s.start(ctx, opts, func(sess *planner.Session) (relalg.Iterator, error) {
		if med != nil {
			return s.executor.MediationStream(sess, med)
		}
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			return nil, err
		}
		return s.executor.StatementStream(sess, stmt)
	})
	if err != nil {
		return nil, err
	}
	if transient {
		relalg.MarkTransient(it)
	}
	if err := it.Open(sess.Context()); err != nil {
		sess.Close()
		return nil, err
	}
	return &RowStream{sess: sess, it: it, med: med, schema: it.Schema()}, nil
}

// Schema describes the stream's rows; available before the first Next.
func (r *RowStream) Schema() Schema { return r.schema }

// Mediation returns the mediated form of the query, or nil for a naive
// stream.
func (r *RowStream) Mediation() *Mediation { return r.med }

// Next returns the next row, ok=false at end of stream, or an error
// (including context.Canceled / context.DeadlineExceeded when the session
// dies, and governor errors when a budget is exceeded). It pulls whole
// batches from the executor and hands them out row by row; use NextBatch
// to consume the stream block-at-a-time instead (don't mix the two
// mid-batch — Next's buffered remainder would be skipped).
func (r *RowStream) Next() (Tuple, bool, error) {
	if r.closed {
		return nil, false, nil
	}
	if r.pos >= len(r.buf) {
		b, err := r.it.Next(relalg.DefaultBatchSize)
		if err != nil {
			return nil, false, err
		}
		if b.Empty() {
			return nil, false, nil
		}
		r.buf, r.pos = b.Rows, 0
	}
	t := r.buf[r.pos]
	r.pos++
	return t, true, nil
}

// NextBatch returns the next block of rows: 1..max rows, or (nil, nil)
// at end of stream. The returned slice is only valid until the next
// NextBatch/Next/Close call; the Tuples inside it are durable. Any rows
// a prior Next buffered are drained first.
func (r *RowStream) NextBatch(max int) ([]Tuple, error) {
	if r.closed {
		return nil, nil
	}
	if r.pos < len(r.buf) {
		rows := r.buf[r.pos:]
		r.buf, r.pos = nil, 0
		return rows, nil
	}
	b, err := r.it.Next(max)
	if err != nil {
		return nil, err
	}
	return b.Rows, nil
}

// Collect drains what is left of the stream into a Relation and closes
// the stream.
func (r *RowStream) Collect() (*Relation, error) {
	rel := relalg.NewRelation("", r.schema)
	for {
		rows, err := r.NextBatch(relalg.DefaultBatchSize)
		if err != nil || len(rows) == 0 {
			if cerr := r.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, err
			}
			return rel, nil
		}
		rel.Tuples = append(rel.Tuples, rows...)
	}
}

// Warnings returns the degraded-branch warnings accumulated so far on a
// partial-results stream (nil otherwise). Branches may degrade mid-stream,
// so the set is only final once Next has returned ok=false.
func (r *RowStream) Warnings() []Warning { return r.sess.Warnings() }

// Cancel aborts the query session, releasing a Next blocked on a slow
// source. Unlike Close it is safe to call from another goroutine while
// the consumer is mid-Next; the consumer still must Close the stream.
func (r *RowStream) Cancel() { r.sess.Cancel() }

// Close releases the stream: the iterator tree (closing every source
// stream it holds) and the query session. Idempotent.
func (r *RowStream) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	err := r.it.Close()
	r.sess.Close()
	return err
}
