package wrappertest

import (
	"context"
	"sync"
	"time"

	"repro/internal/relalg"
	"repro/internal/wrapper"
)

// Counter wraps a source and records every query that actually reaches
// it — materialized fetches and streamed scans alike — so tests can pin
// batching (⌈N/BatchSize⌉ queries), single-flight deduplication (one
// query per canonical probe) and dispatcher admission (in-flight
// ceiling). An optional Delay simulates a slow remote source, observed
// per query and abandoned early when the query context dies.
type Counter struct {
	wrapper.Wrapper
	// Delay is the simulated per-query source latency.
	Delay time.Duration
	// RowEstimates overrides the inner wrapper's static EstimateRows per
	// relation, so planner-ordering tests can shape cost landscapes (for
	// instance, a source that badly misestimates its own cardinality)
	// without building real sources of those sizes.
	RowEstimates map[string]int
	// CostParams overrides the inner wrapper's Cost() when non-nil, for
	// the same reason.
	CostParams *wrapper.Cost

	mu          sync.Mutex
	queries     int
	byCanonical map[string]int
	log         []wrapper.SourceQuery
	inflight    int
	maxInflight int
}

// NewCounter instruments inner.
func NewCounter(inner wrapper.Wrapper) *Counter {
	return &Counter{Wrapper: inner, byCanonical: map[string]int{}}
}

// begin records a query's start and returns the matching end callback.
// The end callback is safe to call from any goroutine: concurrent
// pipelines' streams drain — and therefore release — concurrently.
func (c *Counter) begin(q wrapper.SourceQuery) func() {
	c.mu.Lock()
	c.queries++
	c.byCanonical[q.Canonical()]++
	c.log = append(c.log, q)
	c.inflight++
	if c.inflight > c.maxInflight {
		c.maxInflight = c.inflight
	}
	c.mu.Unlock()
	return func() {
		c.mu.Lock()
		c.inflight--
		c.mu.Unlock()
	}
}

// sleep waits out Delay or the context, whichever ends first.
func (c *Counter) sleep(ctx context.Context) error {
	if c.Delay <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(c.Delay)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// DistinctCount forwards the optional wrapper.Statser extension of the
// inner wrapper; embedding the Wrapper interface alone would hide it
// from the planner's type assertion.
func (c *Counter) DistinctCount(ctx context.Context, relation, column string) (int, bool) {
	if st, ok := c.Wrapper.(wrapper.Statser); ok {
		return st.DistinctCount(ctx, relation, column)
	}
	return 0, false
}

// EstimateRows implements wrapper.Wrapper, honoring RowEstimates.
func (c *Counter) EstimateRows(ctx context.Context, relation string) int {
	if n, ok := c.RowEstimates[relation]; ok {
		return n
	}
	return c.Wrapper.EstimateRows(ctx, relation)
}

// Cost implements wrapper.Wrapper, honoring CostParams.
func (c *Counter) Cost() wrapper.Cost {
	if c.CostParams != nil {
		return *c.CostParams
	}
	return c.Wrapper.Cost()
}

// Query implements wrapper.Wrapper.
func (c *Counter) Query(ctx context.Context, q wrapper.SourceQuery) (*relalg.Relation, error) {
	end := c.begin(q)
	defer end()
	if err := c.sleep(ctx); err != nil {
		return nil, err
	}
	return c.Wrapper.Query(ctx, q)
}

// QueryStream implements wrapper.Streamer: the streamed fetch counts as
// one query; the in-flight window spans the stream's lifetime, matching
// the dispatcher's slot discipline.
func (c *Counter) QueryStream(ctx context.Context, q wrapper.SourceQuery) (wrapper.TupleStream, error) {
	end := c.begin(q)
	if err := c.sleep(ctx); err != nil {
		end()
		return nil, err
	}
	st, err := wrapper.QueryStream(ctx, c.Wrapper, q)
	if err != nil {
		end()
		return nil, err
	}
	return &countedStream{TupleStream: st, end: end}, nil
}

// countedStream ends its Counter's in-flight window once, at stream
// exhaustion, failure or Close — the same window over which the engine's
// dispatcher holds the scan's admission slot, so MaxInflight can be
// compared against admission caps exactly.
type countedStream struct {
	wrapper.TupleStream
	end  func()
	once sync.Once
}

func (s *countedStream) Next() (relalg.Tuple, bool, error) {
	t, ok, err := s.TupleStream.Next()
	if err != nil || !ok {
		s.once.Do(s.end)
	}
	return t, ok, err
}

func (s *countedStream) Close() error {
	s.once.Do(s.end)
	return s.TupleStream.Close()
}

// Queries reports the queries that reached the source.
func (c *Counter) Queries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queries
}

// QueriesFor reports how often a query canonically equal to q reached
// the source (0 when deduplicated away entirely).
func (c *Counter) QueriesFor(q wrapper.SourceQuery) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byCanonical[q.Canonical()]
}

// MaxDuplicates reports the highest per-canonical-query count — 1 means
// no identical query ever reached the source twice.
func (c *Counter) MaxDuplicates() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	max := 0
	for _, n := range c.byCanonical {
		if n > max {
			max = n
		}
	}
	return max
}

// MaxInflight reports the peak number of concurrently running queries.
func (c *Counter) MaxInflight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxInflight
}

// Log snapshots the queries seen, in arrival order.
func (c *Counter) Log() []wrapper.SourceQuery {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]wrapper.SourceQuery(nil), c.log...)
}

// Reset zeroes every counter.
func (c *Counter) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.queries, c.inflight, c.maxInflight = 0, 0, 0
	c.byCanonical = map[string]int{}
	c.log = nil
}
