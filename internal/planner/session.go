package planner

// A query session is the unit of lifetime and resource governance the
// paper's service deployment needs: receivers reach the mediator over a
// network, sources are remote and slow, and an abandoned or runaway query
// must stop consuming both promptly. A Session bundles a context
// (cancellation + deadline) with per-query resource governors; the
// executor threads it through every pipeline it compiles, so the leaves
// (source scans, bind-join fetches) and the breaker drains all observe
// the same lifetime.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Limits are the resource-governor knobs of one query session. The zero
// value means ungoverned (no deadline, no caps): NewSession(ctx, Limits{})
// is how a run without governors is spelled — there is no nil session.
type Limits struct {
	// Timeout bounds the session's wall-clock lifetime; enforced as a
	// context deadline, so exceeding it surfaces as
	// context.DeadlineExceeded from the pipeline.
	Timeout time.Duration
	// MaxRows caps the rows delivered to the receiver. It truncates the
	// answer rather than failing the query; the service layer (coin,
	// HTTP) applies it as a final LIMIT.
	MaxRows int
	// MaxTuples caps tuples transferred from sources across the whole
	// session; exceeding it aborts the query with ErrTuplesExceeded.
	MaxTuples int
	// MaxConcurrentPerSource caps this session's in-flight queries
	// against any single source, below the source dispatcher's own pool
	// size (see internal/planner/access.go). Zero leaves the session
	// bounded only by the per-source dispatchers.
	MaxConcurrentPerSource int
	// RetryBudget caps the retries the whole session may consume across
	// all source operations — the per-operation bound is the executor's
	// RetryPolicy. Zero means unbudgeted (the per-operation policy alone
	// governs).
	RetryBudget int
	// PartialResults degrades instead of failing when a mediation branch
	// is felled by a source fault (after retries and the breaker have had
	// their say): the branch is dropped, the answer is computed from the
	// surviving branches, and a Warning per dropped branch reaches the
	// receiver. Failures that are not source-attributed — governor
	// violations, cancellation, planning errors — stay fatal. Default
	// (false) is fail-fast: any branch failure fails the query.
	PartialResults bool
}

// ErrTuplesExceeded aborts a session that transferred more source tuples
// than its Limits.MaxTuples allows.
var ErrTuplesExceeded = fmt.Errorf("planner: session exceeded max tuples transferred")

// Session is one query's lifetime: a context carrying cancellation and
// deadline, plus the governor state shared by every pipeline the query
// runs. Create one per query with Executor.NewSession and Close it when
// the answer has been consumed; Close cancels the context, which stops any
// still-running pipeline and releases the deadline timer. The governor
// fields are safe for concurrent use: batched probe fetches and the
// concurrently opened branches of one query charge the same session from
// several goroutines.
type Session struct {
	ctx    context.Context
	cancel context.CancelFunc
	limits Limits

	// tuples is atomic, not mutex-guarded: it is charged once per batch
	// pulled from a source, by every scan of the query.
	tuples atomic.Int64

	// retries counts retries consumed session-wide against
	// Limits.RetryBudget.
	retries atomic.Int64

	// warnings collects the degraded-branch warnings of a partial answer.
	warnMu   sync.Mutex
	warnings []Warning

	// probe is the session-scoped cache of probe answers and hash-join
	// build tables (access.go); Close drops it.
	probe probeCache

	// disp holds the session-level per-source admission pools backing
	// Limits.MaxConcurrentPerSource.
	disp dispatcherPool

	// obs buffers the run's statistics observations (observed source
	// cardinalities and latencies); Close drains them into obsSink — the
	// executor's adaptive StatsStore — so a query's own feedback reaches
	// the optimizer only once the query is over, and concurrent scans
	// contend on one small buffer lock instead of the store. The buffer
	// is bounded; overflow drains inline.
	obsMu   sync.Mutex
	obs     []statObs
	obsSink *StatsStore
}

// maxBufferedObs bounds a session's observation buffer; a run producing
// more flushes the surplus to the store inline.
const maxBufferedObs = 512

// NewSession derives a query session from ctx with the given limits. The
// session context inherits ctx's cancellation and gains a deadline when
// lim.Timeout is positive.
func (e *Executor) NewSession(ctx context.Context, lim Limits) *Session {
	var cancel context.CancelFunc
	if lim.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, lim.Timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	return &Session{ctx: ctx, cancel: cancel, limits: lim, obsSink: e.AdaptiveStats}
}

// Context returns the session's context; Open pipeline trees with it.
func (s *Session) Context() context.Context { return s.ctx }

// Limits returns the session's resource limits.
func (s *Session) Limits() Limits { return s.limits }

// Cancel aborts the session's work without waiting for Close.
func (s *Session) Cancel() { s.cancel() }

// Close releases the session: it cancels the context (stopping any
// in-flight pipeline), frees the deadline timer, drops the cached source
// answers (a closed session a caller still holds pins no build table),
// and flushes the buffered statistics observations into the executor's
// adaptive store — the feedback loop's hand-off point. Idempotent.
func (s *Session) Close() error {
	s.flushObs()
	s.cancel()
	s.probe.mu.Lock()
	s.probe.entries, s.probe.bytes = nil, 0
	s.probe.mu.Unlock()
	return nil
}

// bufferObs queues a statistics observation on the session (a no-op when
// the executor has no adaptive store — the learning ablation). Past the
// buffer bound the surplus drains to the store inline.
func (s *Session) bufferObs(o statObs) {
	if s.obsSink == nil {
		return
	}
	var drain []statObs
	s.obsMu.Lock()
	s.obs = append(s.obs, o)
	if len(s.obs) >= maxBufferedObs {
		drain = s.obs
		s.obs = nil
	}
	s.obsMu.Unlock()
	for _, o := range drain {
		o.apply(s.obsSink)
	}
}

// flushObs drains the session's buffered observations into the adaptive
// store. Draining makes it idempotent.
func (s *Session) flushObs() {
	if s.obsSink == nil {
		return
	}
	s.obsMu.Lock()
	drain := s.obs
	s.obs = nil
	s.obsMu.Unlock()
	for _, o := range drain {
		o.apply(s.obsSink)
	}
}

// TuplesTransferred reports the tuples charged against the session's
// transfer governor so far.
func (s *Session) TuplesTransferred() int { return int(s.tuples.Load()) }

// chargeTuples records n source tuples against the session's transfer
// budget, failing once the budget is exhausted. A zero MaxTuples is
// ungoverned.
func (s *Session) chargeTuples(n int) error {
	total := s.tuples.Add(int64(n))
	if s.limits.MaxTuples > 0 && total > int64(s.limits.MaxTuples) {
		return fmt.Errorf("%w (%d > %d)", ErrTuplesExceeded, total, s.limits.MaxTuples)
	}
	return nil
}

// tupleBudget reports the session's remaining transfer budget; capped is
// false when the session is ungoverned. Scans use it to size batch
// requests so a governed stream never overshoots the limit by more than
// the one tuple that proves the limit was crossed.
func (s *Session) tupleBudget() (int, bool) {
	if s.limits.MaxTuples <= 0 {
		return 0, false
	}
	rem := int64(s.limits.MaxTuples) - s.tuples.Load()
	if rem < 0 {
		rem = 0
	}
	return int(rem), true
}

// chargeTupleBatch records n source tuples against the session's transfer
// budget in one atomic add. When the batch crosses the limit it reports
// how many of the n tuples still fit — the remainder accounting that lets
// a scan deliver the allowed prefix downstream before surfacing
// ErrTuplesExceeded, exactly matching what per-tuple charging delivered.
func (s *Session) chargeTupleBatch(n int) (int, error) {
	total := s.tuples.Add(int64(n))
	if s.limits.MaxTuples > 0 && total > int64(s.limits.MaxTuples) {
		allowed := n - int(total-int64(s.limits.MaxTuples))
		if allowed < 0 {
			allowed = 0
		}
		return allowed, fmt.Errorf("%w (%d > %d)", ErrTuplesExceeded, total, s.limits.MaxTuples)
	}
	return n, nil
}

// chargeRetry asks the session for permission to retry one more source
// operation, charging its RetryBudget. A zero budget is unbudgeted.
func (s *Session) chargeRetry() bool {
	n := s.retries.Add(1)
	return s.limits.RetryBudget <= 0 || n <= int64(s.limits.RetryBudget)
}

// warn records one degraded-branch warning on the session.
func (s *Session) warn(w Warning) {
	s.warnMu.Lock()
	s.warnings = append(s.warnings, w)
	s.warnMu.Unlock()
}

// warnBranch records branch (1-based) as dropped for err, attributing the
// source when err carries one.
func (s *Session) warnBranch(branch int, err error) {
	w := Warning{Branch: branch, Message: err.Error()}
	var se *SourceError
	if errors.As(err, &se) {
		w.Source = se.Source
	}
	s.warn(w)
}

// Warnings returns the degraded-branch warnings accumulated so far (nil
// when the answer is complete). The copy is safe to retain.
func (s *Session) Warnings() []Warning {
	s.warnMu.Lock()
	defer s.warnMu.Unlock()
	if len(s.warnings) == 0 {
		return nil
	}
	return append([]Warning(nil), s.warnings...)
}

// dispatcherFor returns the session-level admission pool for a source,
// or nil when the session does not cap per-source concurrency.
func (s *Session) dispatcherFor(source string) *dispatcher {
	if s.limits.MaxConcurrentPerSource <= 0 {
		return nil
	}
	return s.disp.get(source, s.limits.MaxConcurrentPerSource)
}
