package wrappertest

import (
	"context"
	"sync"
	"time"

	"repro/internal/relalg"
	"repro/internal/wrapper"
)

// Timeline is one ordered event log shared by every source it wraps: a
// query reaching its source, a tuple leaving a stream and a stream ending
// are appended in the order they happen across all the sources, so a test
// can read how the engine interleaved its work — whose source was
// contacted before whose stream was drained. Delay, when non-nil, gives
// each query a latency before it runs (a schedule perturbation); it is
// called concurrently, and the wait is abandoned when the query's context
// dies.
type Timeline struct {
	Delay func(source string, q wrapper.SourceQuery) time.Duration

	mu     sync.Mutex
	events []Event
}

// EventKind classifies a Timeline entry.
type EventKind int

const (
	// Contact: a query (materialized fetch or stream open) reached the
	// source, logged before its Delay.
	Contact EventKind = iota
	// Pull: a stream handed one tuple to the engine.
	Pull
	// End: a stream was exhausted, failed or closed (logged once).
	End
)

// Event is one Timeline entry.
type Event struct {
	Kind   EventKind
	Source string
	Query  wrapper.SourceQuery
}

// Wrap instruments inner so that its traffic is logged on t.
func (t *Timeline) Wrap(inner wrapper.Wrapper) wrapper.Wrapper {
	return &timed{Wrapper: inner, t: t}
}

// Events snapshots the log, in order.
func (t *Timeline) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

func (t *Timeline) log(kind EventKind, source string, q wrapper.SourceQuery) {
	t.mu.Lock()
	t.events = append(t.events, Event{Kind: kind, Source: source, Query: q})
	t.mu.Unlock()
}

// contact logs a query and waits out its Delay.
func (t *Timeline) contact(ctx context.Context, source string, q wrapper.SourceQuery) error {
	t.log(Contact, source, q)
	if t.Delay == nil {
		return ctx.Err()
	}
	tm := time.NewTimer(t.Delay(source, q))
	defer tm.Stop()
	select {
	case <-tm.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

type timed struct {
	wrapper.Wrapper
	t *Timeline
}

// DistinctCount forwards the optional wrapper.Statser extension, as
// Counter does.
func (w *timed) DistinctCount(ctx context.Context, relation, column string) (int, bool) {
	if st, ok := w.Wrapper.(wrapper.Statser); ok {
		return st.DistinctCount(ctx, relation, column)
	}
	return 0, false
}

// Query implements wrapper.Wrapper.
func (w *timed) Query(ctx context.Context, q wrapper.SourceQuery) (*relalg.Relation, error) {
	if err := w.t.contact(ctx, w.Source(), q); err != nil {
		return nil, err
	}
	return w.Wrapper.Query(ctx, q)
}

// QueryStream implements wrapper.Streamer.
func (w *timed) QueryStream(ctx context.Context, q wrapper.SourceQuery) (wrapper.TupleStream, error) {
	if err := w.t.contact(ctx, w.Source(), q); err != nil {
		return nil, err
	}
	st, err := wrapper.QueryStream(ctx, w.Wrapper, q)
	if err != nil {
		return nil, err
	}
	return &timedStream{TupleStream: st, w: w, q: q}, nil
}

type timedStream struct {
	wrapper.TupleStream
	w    *timed
	q    wrapper.SourceQuery
	once sync.Once
}

func (s *timedStream) end() { s.once.Do(func() { s.w.t.log(End, s.w.Source(), s.q) }) }

func (s *timedStream) Next() (relalg.Tuple, bool, error) {
	tup, ok, err := s.TupleStream.Next()
	if ok {
		s.w.t.log(Pull, s.w.Source(), s.q)
	} else {
		s.end()
	}
	return tup, ok, err
}

func (s *timedStream) Close() error {
	s.end()
	return s.TupleStream.Close()
}
