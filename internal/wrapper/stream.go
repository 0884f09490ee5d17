package wrapper

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/relalg"
)

// TupleStream delivers a source query's answer incrementally: the
// engine-side face of a chunked fetch. The contract mirrors
// relalg.Iterator minus Open — a TupleStream is returned ready to read,
// and must be Closed exactly once by the consumer (early close allowed).
type TupleStream interface {
	// Schema describes the delivered tuples.
	Schema() relalg.Schema
	// Next returns the next tuple, or ok=false at end of stream.
	Next() (relalg.Tuple, bool, error)
	// Close releases the stream; safe to call before exhaustion.
	Close() error
}

// Streamer is optionally implemented by wrappers whose sources can
// deliver answers incrementally instead of as one materialized relation.
// The engine always fetches through QueryStream, which falls back to a
// materializing adapter, so implementing Streamer is purely an
// optimization — it lets an engine-side LIMIT stop the transfer early.
// Streams must honor the context: once it is canceled, Next returns
// ctx.Err() instead of contacting the source again.
type Streamer interface {
	// QueryStream executes a source query and streams the answer.
	QueryStream(ctx context.Context, q SourceQuery) (TupleStream, error)
}

// QueryStream fetches q from w incrementally: natively when w implements
// Streamer, otherwise by materializing w.Query's answer and streaming
// over it (the default adapter).
func QueryStream(ctx context.Context, w Wrapper, q SourceQuery) (TupleStream, error) {
	if s, ok := w.(Streamer); ok {
		return s.QueryStream(ctx, q)
	}
	rel, err := w.Query(ctx, q)
	if err != nil {
		return nil, err
	}
	return NewRelationStream(rel), nil
}

// BatchStream is optionally implemented by TupleStreams that can deliver
// whole blocks of tuples per call — the streaming counterpart of a
// chunked fetch protocol. The engine's scan leaf probes for it and falls
// back to per-tuple Next (a degenerate one-row batch) when absent, so
// per-tuple gating wrappers (test gates, fault injectors) keep their
// exact semantics.
//
// Contract: NextBatch returns 1..max rows, or (nil, nil) at end of
// stream. An error comes with no rows: an implementation that hits a
// fault after buffering rows returns the buffered rows first and
// re-surfaces the error on the following call, so no delivered tuple is
// lost. The returned slice is valid until the next NextBatch/Close; the
// tuples inside are durable.
type BatchStream interface {
	NextBatch(max int) ([]relalg.Tuple, error)
}

// NextBatch implements BatchStream as a zero-copy subslice of the
// materialized relation.
func (r *RelationStream) NextBatch(max int) ([]relalg.Tuple, error) {
	if r.pos >= len(r.rel.Tuples) {
		return nil, nil
	}
	if max <= 0 {
		max = relalg.DefaultBatchSize
	}
	end := r.pos + max
	if end > len(r.rel.Tuples) {
		end = len(r.rel.Tuples)
	}
	rows := r.rel.Tuples[r.pos:end]
	r.pos = end
	return rows, nil
}

// RelationStream adapts a materialized relation to the TupleStream
// interface.
type RelationStream struct {
	rel *relalg.Relation
	pos int
}

// NewRelationStream streams over rel.
func NewRelationStream(rel *relalg.Relation) *RelationStream {
	return &RelationStream{rel: rel}
}

// Schema implements TupleStream.
func (r *RelationStream) Schema() relalg.Schema { return r.rel.Schema }

// Next implements TupleStream.
func (r *RelationStream) Next() (relalg.Tuple, bool, error) {
	if r.pos >= len(r.rel.Tuples) {
		return nil, false, nil
	}
	t := r.rel.Tuples[r.pos]
	r.pos++
	return t, true, nil
}

// Close implements TupleStream.
func (r *RelationStream) Close() error { return nil }

// Matcher compiles filters against a schema into a per-tuple predicate,
// resolving each filter column once. ApplyFilters and the streaming
// executor share it so materialized and streaming filtering cannot
// diverge.
func Matcher(schema relalg.Schema, filters []Filter) (func(relalg.Tuple) (bool, error), error) {
	if len(filters) == 0 {
		return func(relalg.Tuple) (bool, error) { return true, nil }, nil
	}
	idx := make([]int, len(filters))
	fns := make([]func(relalg.Value) (bool, error), len(filters))
	for i, f := range filters {
		ci := schema.Index(f.Column)
		if ci < 0 {
			return nil, fmt.Errorf("wrapper: filter on unknown column %s", f.Column)
		}
		idx[i] = ci
		fns[i] = f.Compile()
	}
	return func(t relalg.Tuple) (bool, error) {
		for i, fn := range fns {
			ok, err := fn(t[idx[i]])
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		}
		return true, nil
	}, nil
}

// RawReader is the one read method a streaming backend supplies: blocks
// of rows as the source hands them over, before the selection and
// projection the source did not do itself. NewCursor turns it into the
// engine-facing stream.
//
// Contract: NextBatch returns up to max rows of Schema, (nil, nil) at end
// of data. A block shorter than max is a boundary the source chose (a
// page end) — the cursor hands out what it has instead of asking again.
// Rows and an error may come together: the rows were read before the
// fault. The reader owns the slice (valid until its next call); the
// tuples inside must be durable. Close releases the source-side
// resource and is called exactly once.
type RawReader interface {
	Schema() relalg.Schema
	NextBatch(max int) ([]relalg.Tuple, error)
	Close() error
}

// cursor is the engine-facing stream over every backend's RawReader: the
// only place the wrapper layer checks the query's context, applies the
// filters (σ) and column list (π) a source left to its wrapper, holds an
// error back behind rows already produced, and serves per-tuple
// consumers. It implements TupleStream and BatchStream.
type cursor struct {
	ctx     context.Context
	raw     RawReader
	match   func(relalg.Tuple) (bool, error)
	projIdx []int // nil: rows pass through unprojected
	schema  relalg.Schema

	out    []relalg.Tuple       // reused block buffer, never the raw reader's slice
	bb     *relalg.BatchBuilder // per-batch arena of projected rows (projIdx != nil)
	pend   error                // error held back behind the previous block
	view   []relalg.Tuple       // rest of the block Next is serving
	closed bool
}

// NewCursor returns the stream of raw's rows that pass filters, narrowed
// to columns (none: every column): the filters and projection the source
// could not evaluate itself — a backend that pushes either down passes
// nil for it. The stream takes ownership of raw and closes it, also when
// NewCursor fails. It checks ctx once per block (and per Next call) and
// stops reading raw once ctx is done.
func NewCursor(ctx context.Context, raw RawReader, filters []Filter, columns []string) (TupleStream, error) {
	c := &cursor{ctx: ctx, raw: raw, schema: raw.Schema()}
	var err error
	if c.match, err = Matcher(c.schema, filters); err != nil {
		raw.Close()
		return nil, err
	}
	if len(columns) > 0 {
		if c.projIdx, c.schema, err = resolveProjection(c.schema, columns); err != nil {
			raw.Close()
			return nil, err
		}
		c.bb = relalg.NewBatchBuilder(len(c.projIdx))
	}
	return c, nil
}

func (c *cursor) Schema() relalg.Schema { return c.schema }

// errStreamClosed answers a read from a closed cursor, so no backend is
// contacted on behalf of a consumer that already let go.
var errStreamClosed = errors.New("wrapper: stream closed")

// NextBatch implements BatchStream. It keeps reading raw blocks until max
// rows survived the filters, raw handed over a short block with at least
// one survivor, or the data ended; an error met after rows were produced
// is delivered by the following call.
func (c *cursor) NextBatch(max int) ([]relalg.Tuple, error) {
	if max <= 0 {
		max = relalg.DefaultBatchSize
	}
	if len(c.view) > 0 {
		// A per-tuple consumer switched to blocks: the rows Next had not
		// served yet go out first.
		n := min(max, len(c.view))
		rows := c.view[:n]
		c.view = c.view[n:]
		return rows, nil
	}
	if err := c.pend; err != nil {
		c.pend = nil
		return nil, err
	}
	if c.closed {
		return nil, errStreamClosed
	}
	if err := c.ctx.Err(); err != nil {
		return nil, err
	}
	c.out = c.out[:0]
	if c.bb != nil {
		c.bb.Reset(max)
	}
	n := 0
	for n < max {
		want := max - n
		rows, err := c.raw.NextBatch(want)
		for _, t := range rows {
			keep, merr := c.match(t)
			if merr != nil {
				err = merr
				break
			}
			if !keep {
				continue
			}
			n++
			if c.projIdx == nil {
				c.out = append(c.out, t)
				continue
			}
			row := c.bb.Row()
			for i, ci := range c.projIdx {
				row[i] = t[ci]
			}
		}
		if err != nil {
			if n == 0 {
				return nil, err
			}
			c.pend = err
			break
		}
		if len(rows) == 0 || len(rows) < want && n > 0 {
			break
		}
	}
	if n == 0 {
		return nil, nil
	}
	if c.projIdx == nil {
		return c.out, nil
	}
	return c.bb.Batch().Rows, nil
}

// Next implements TupleStream as a view over the current block.
func (c *cursor) Next() (relalg.Tuple, bool, error) {
	if err := c.ctx.Err(); err != nil {
		return nil, false, err
	}
	if len(c.view) == 0 {
		rows, err := c.NextBatch(0)
		if err != nil || len(rows) == 0 {
			return nil, false, err
		}
		c.view = rows
	}
	t := c.view[0]
	c.view = c.view[1:]
	return t, true, nil
}

// Close implements TupleStream; only the first call reaches the raw
// reader.
func (c *cursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.view, c.pend = nil, nil
	return c.raw.Close()
}

// Drain reads st to its end into a relation called name and closes it:
// the materialized Query of every streaming backend.
func Drain(name string, st TupleStream) (*relalg.Relation, error) {
	defer st.Close()
	rel := relalg.NewRelation(name, st.Schema())
	for {
		t, ok, err := st.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return rel, nil
		}
		rel.Tuples = append(rel.Tuples, t)
	}
}
