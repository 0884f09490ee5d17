package main

import (
	"context"
	"time"

	"repro/internal/relalg"
	"repro/internal/wrapper"
)

// tap decorates a source's wrapper for the benchmark: every source query
// first waits delay (the slow_sources workload's stand-in for a remote
// source), and in a traced request every call into the source is
// recorded as a wrapper.query span. The decorated value offers exactly
// the optional interfaces the inner wrapper offers - Streamer, Statser,
// and BatchStream on the streams it opens - so the planner makes the
// same pushdown, batching, partitioning and streaming decisions as
// without it; TestDecoratorFidelity holds that to byte-identical plans
// and answers.
func tap(w wrapper.Wrapper, delay time.Duration) wrapper.Wrapper {
	base := &tapped{Wrapper: w, delay: delay}
	streamer, isStreamer := w.(wrapper.Streamer)
	statser, isStatser := w.(wrapper.Statser)
	ts := tappedStreamer{base, streamer}
	switch {
	case isStreamer && isStatser:
		return struct {
			*tapped
			tappedStreamer
			wrapper.Statser
		}{base, ts, statser}
	case isStreamer:
		return struct {
			*tapped
			tappedStreamer
		}{base, ts}
	case isStatser:
		return struct {
			*tapped
			wrapper.Statser
		}{base, statser}
	}
	return base
}

type tapped struct {
	wrapper.Wrapper
	delay time.Duration
}

// wait sleeps for the source's delay, or until the query is abandoned.
func wait(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// record adds a wrapper.query span under whatever planner.exec span the
// request has open, else under its handler.
func record(rt *reqTrace, start int64, query bool, tuples int) {
	if rt == nil {
		return
	}
	end := now()
	rt.mu.Lock()
	parent := rt.exec
	if parent == 0 {
		parent = rt.handler
	}
	rt.spans = append(rt.spans, span{ID: spanIDs.Add(1), Req: rt.id, Name: "wrapper.query", Start: start, End: end, Parent: parent})
	if query {
		rt.queries++
	}
	rt.tuples += tuples
	rt.mu.Unlock()
}

func (t *tapped) Query(ctx context.Context, q wrapper.SourceQuery) (*relalg.Relation, error) {
	rt, start := traceFrom(ctx), now()
	if err := wait(ctx, t.delay); err != nil {
		return nil, err
	}
	//lint:allow sourcefunnel the decorator is the source as the engine sees it; the engine's funnel is its caller
	rel, err := t.Wrapper.Query(ctx, q)
	n := 0
	if rel != nil {
		n = rel.Len()
	}
	record(rt, start, true, n)
	return rel, err
}

type tappedStreamer struct {
	t     *tapped
	inner wrapper.Streamer
}

func (s tappedStreamer) QueryStream(ctx context.Context, q wrapper.SourceQuery) (wrapper.TupleStream, error) {
	rt, start := traceFrom(ctx), now()
	if err := wait(ctx, s.t.delay); err != nil {
		return nil, err
	}
	//lint:allow sourcefunnel the decorator is the source as the engine sees it; the engine's funnel is its caller
	stream, err := s.inner.QueryStream(ctx, q)
	record(rt, start, true, 0)
	if err != nil || rt == nil {
		return stream, err
	}
	ts := &tappedStream{TupleStream: stream, rt: rt}
	if b, ok := stream.(wrapper.BatchStream); ok {
		return &tappedBatchStream{ts, b}, nil
	}
	return ts, nil
}

// tappedStream times a traced request's pulls from a source stream.
type tappedStream struct {
	wrapper.TupleStream
	rt *reqTrace
}

func (s *tappedStream) Next() (relalg.Tuple, bool, error) {
	start := now()
	t, ok, err := s.TupleStream.Next()
	n := 0
	if ok {
		n = 1
	}
	record(s.rt, start, false, n)
	return t, ok, err
}

func (s *tappedStream) Close() error {
	start := now()
	err := s.TupleStream.Close()
	record(s.rt, start, false, 0)
	return err
}

type tappedBatchStream struct {
	*tappedStream
	inner wrapper.BatchStream
}

func (s *tappedBatchStream) NextBatch(max int) ([]relalg.Tuple, error) {
	start := now()
	rows, err := s.inner.NextBatch(max)
	record(s.rt, start, false, len(rows))
	return rows, err
}

// tappedSite decorates the currency site the Web wrapper crawls: each
// page costs delay and is counted against the traced request.
type tappedSite struct {
	site  wrapper.Fetcher
	delay time.Duration
}

func (s tappedSite) Get(ctx context.Context, url string) (string, error) {
	if err := wait(ctx, s.delay); err != nil {
		return "", err
	}
	if rt := traceFrom(ctx); rt != nil {
		rt.mu.Lock()
		rt.pages++
		rt.mu.Unlock()
	}
	return s.site.Get(ctx, url)
}
