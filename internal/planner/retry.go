package planner

// Fault handling of the source access layer: every source operation the
// engine issues (materialized probes and streaming scan opens alike) runs
// through Executor.withRetry, which layers three mechanisms over the raw
// wrapper call:
//
//   - a per-source circuit breaker (breaker.go) admits each attempt, so a
//     source that keeps failing is rejected immediately instead of
//     burning a timeout per probe;
//   - faults wrapper.Retryable recognizes (transient, rate-limited — see
//     internal/wrapper/errors.go) are retried with exponential backoff
//     plus jitter, within the executor's RetryPolicy and the session's
//     Limits.RetryBudget governor;
//   - whatever failure survives comes back wrapped in *SourceError, which
//     attributes it to the source — the marker partial-results mode keys
//     off when deciding what may degrade (stream.go).
//
// Context death is never a source fault: when the session (or branch)
// context is done the raw error propagates unwrapped, feeding neither the
// breaker's verdict counts nor the retry loop — though an attempt that
// was admitted as the breaker's half-open probe is still released
// (abandoned) so the shared probe slot cannot leak.

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"repro/internal/wrapper"
)

// RetryPolicy bounds the retries one source operation may consume. The
// zero value disables retrying (each operation gets a single attempt),
// which keeps the default execution semantics exactly as before; the
// session-wide cap across operations is Limits.RetryBudget.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per operation,
	// including the first; 0 or 1 means no retries.
	MaxAttempts int
	// BaseBackoff is the wait before the first retry, doubling per
	// further attempt; 0 means DefaultBaseBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the per-retry wait; 0 means DefaultMaxBackoff. A
	// rate-limited source's Retry-After hint overrides a shorter wait.
	MaxBackoff time.Duration
}

// DefaultBaseBackoff is the first-retry wait when the policy names none.
const DefaultBaseBackoff = 20 * time.Millisecond

// DefaultMaxBackoff caps the exponential backoff when the policy names no
// cap of its own.
const DefaultMaxBackoff = 2 * time.Second

// enabled reports whether the policy allows any retry at all.
func (p RetryPolicy) enabled() bool { return p.MaxAttempts > 1 }

// attempts returns the per-operation attempt bound (at least 1).
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// backoff computes the wait before retry number `retry` (1-based):
// exponential in the base, capped, with half-width jitter so synchronized
// failures do not re-converge on the source in lockstep; a rate-limited
// source's hint is a floor.
func (p RetryPolicy) backoff(retry int, hint time.Duration) time.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = DefaultBaseBackoff
	}
	ceiling := p.MaxBackoff
	if ceiling <= 0 {
		ceiling = DefaultMaxBackoff
	}
	d := base
	for i := 1; i < retry && d < ceiling; i++ {
		d *= 2
	}
	d = min(d, ceiling)
	// Full jitter over the upper half: [d/2, d].
	return max(d/2+time.Duration(rand.Int63n(int64(d/2)+1)), hint)
}

// SourceError attributes an execution-time failure to the source it came
// from. The access layer wraps every post-admission source fault in one;
// partial-results mode (Limits.PartialResults) degrades exactly these —
// context death and governor violations are never wrapped, so they stay
// fatal even under degradation.
type SourceError struct {
	Source string
	Err    error
}

func (e *SourceError) Error() string { return "source " + e.Source + ": " + e.Err.Error() }

func (e *SourceError) Unwrap() error { return e.Err }

// Degradable reports whether err is a source-attributed failure that
// partial-results mode may drop (with a warning) instead of failing the
// query.
func Degradable(err error) bool {
	var se *SourceError
	return errors.As(err, &se)
}

// Warning records one degraded mediation branch of a partial answer: the
// branch that was dropped, the source whose failure felled it, and the
// failure itself. How many tuples the branch would have contributed is
// unknowable — the warning is the receiver's signal that the answer is a
// lower bound.
type Warning struct {
	// Branch is the 1-based mediation branch that was dropped (0 when the
	// failure was not branch-scoped).
	Branch int `json:"branch,omitempty"`
	// Source names the failed source, when the failure was attributed.
	Source string `json:"source,omitempty"`
	// Message is the underlying failure.
	Message string `json:"error"`
}

// withRetry runs one source operation under the access layer's fault
// handling (see the file comment). op is retried as a whole — including
// its admission acquire — so no dispatcher slot is pinned while the loop
// sits out a backoff.
func (e *Executor) withRetry(ctx context.Context, sess *Session, w wrapper.Wrapper, op func() error) error {
	d := e.dispatcherFor(w)
	for attempt := 1; ; attempt++ {
		probe, aerr := d.allow(e.Breaker)
		if aerr != nil {
			return &SourceError{Source: w.Source(), Err: aerr}
		}
		err := op()
		if err == nil {
			d.succeed(probe)
			return nil
		}
		if ctx.Err() != nil {
			// The query died, the source did not: report the raw error and
			// pass no verdict to the breaker — but release the half-open
			// probe slot if this attempt held it, or the source would be
			// stuck "probe in flight" forever.
			d.abandon(e.Breaker, probe)
			return err
		}
		tripped := d.fail(e.Breaker, probe)
		if tripped {
			e.mu.Lock()
			e.stats.BreakerTrips++
			e.mu.Unlock()
		}
		werr := &SourceError{Source: w.Source(), Err: err}
		if tripped || attempt >= e.Retry.attempts() || !wrapper.Retryable(err) {
			// When this very failure tripped the breaker, retrying is a
			// guaranteed ErrSourceTripped rejection: stop here, without
			// charging the budget, and report the actual source fault.
			return werr
		}
		if !sess.chargeRetry() {
			return werr
		}
		hint, _ := wrapper.RetryAfter(err)
		if !sleepCtx(ctx, e.Retry.backoff(attempt, hint)) {
			return werr
		}
		e.mu.Lock()
		e.stats.Retries++
		e.mu.Unlock()
	}
}

// sleepCtx waits out d or the context, reporting false when the context
// died first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
