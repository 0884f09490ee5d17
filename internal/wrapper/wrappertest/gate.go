// Package wrappertest provides instrumented wrappers for exercising the
// engine's session behavior in tests: gated streams that let a test
// freeze a source mid-transfer and observe how cancellation, deadlines
// and governors react. It lives outside the test binaries so the
// planner, coin and server layers can all drive the same slow-source
// simulation.
package wrappertest

import (
	"context"

	"repro/internal/relalg"
	"repro/internal/wrapper"
)

// Gate wraps a source so each streamed tuple must be explicitly allowed:
// the stream signals on Emitted before every tuple and then blocks until
// the test sends on Proceed — or until the query context dies, which
// releases the stream with ctx.Err(). It stands in for a slow, flaky
// remote source and lets a test cancel a query at an exact point
// mid-transfer.
type Gate struct {
	wrapper.Wrapper
	Emitted chan struct{}
	Proceed chan struct{}
	open    chan struct{}
}

// NewGate gates inner's streams.
func NewGate(inner wrapper.Wrapper) *Gate {
	return &Gate{Wrapper: inner, Emitted: make(chan struct{}), Proceed: make(chan struct{}),
		open: make(chan struct{})}
}

// Allow services n gate cycles (n tuples pass). The cycles are served one
// at a time but in whatever order blocked streams arrive, so it works
// unchanged when several streams block on the gate concurrently.
func (g *Gate) Allow(n int) {
	for i := 0; i < n; i++ {
		<-g.Emitted
		g.Proceed <- struct{}{}
	}
}

// Open releases the gate permanently: every stream blocked on it — and
// every future tuple — passes immediately and concurrently. It lets a
// test freeze streams mid-transfer with Allow, assert on the frozen
// state, then let them all drain at full concurrency.
// Open must be called at most once per Gate.
func (g *Gate) Open() { close(g.open) }

// QueryStream implements wrapper.Streamer.
func (g *Gate) QueryStream(ctx context.Context, q wrapper.SourceQuery) (wrapper.TupleStream, error) {
	st, err := wrapper.QueryStream(ctx, g.Wrapper, q)
	if err != nil {
		return nil, err
	}
	return &gateStream{TupleStream: st, ctx: ctx, g: g}, nil
}

type gateStream struct {
	wrapper.TupleStream
	ctx context.Context
	g   *Gate
}

func (s *gateStream) Next() (relalg.Tuple, bool, error) {
	select {
	case s.g.Emitted <- struct{}{}:
	case <-s.g.open:
		return s.TupleStream.Next()
	case <-s.ctx.Done():
		return nil, false, s.ctx.Err()
	}
	select {
	case <-s.g.Proceed:
	case <-s.g.open:
	case <-s.ctx.Done():
		return nil, false, s.ctx.Err()
	}
	return s.TupleStream.Next()
}
