package planner

// Per-source circuit breakers, layered on the dispatchers of the source
// access layer (access.go) — the executor-level dispatcher is the one
// object already keyed by source and shared by every session, which is
// exactly the scope a breaker needs: a source that is down is down for
// everyone.
//
// State machine (the classic three states):
//
//	closed ──(Threshold consecutive failures)──▶ open
//	open ──(Cooldown elapsed)──▶ half-open (one probe admitted)
//	half-open probe succeeds ──▶ closed;  probe fails ──▶ open again;
//	probe abandoned (its query died mid-flight) ──▶ open again
//
// While open, allow rejects with ErrSourceTripped immediately — mediation
// branches probing a dead source fail fast instead of each burning the
// full source timeout. ErrSourceTripped is deliberately not retryable
// (retrying against a tripped breaker is busy-waiting) but it is
// source-attributed, so partial-results mode can degrade the branch.
//
// Only the half-open probe's own verdict moves the breaker out of
// half-open, and only a probe's success closes an opened breaker: allow
// tells the caller whether the attempt it admitted is the probe, and the
// caller reports the outcome with that flag. An operation admitted while
// the breaker was still closed may finish long after a trip; its late
// success must not bypass the cooldown, and its late failure is not the
// probe's answer. The dispatcher (and thus the breaker) is executor-level
// state shared by every session, so every admitted attempt must resolve —
// succeed, fail, or abandon — or the single probe slot would wedge the
// source for the life of the process.

import (
	"errors"
	"fmt"
	"time"
)

// BreakerPolicy configures the per-source circuit breakers. The zero
// value means defaults.
type BreakerPolicy struct {
	// Threshold is the consecutive-failure count that trips the breaker;
	// 0 means DefaultBreakerThreshold.
	Threshold int
	// Cooldown is how long an open breaker rejects before admitting a
	// half-open probe; 0 means DefaultBreakerCooldown.
	Cooldown time.Duration
}

// DefaultBreakerThreshold trips a source after this many consecutive
// failures.
const DefaultBreakerThreshold = 5

// DefaultBreakerCooldown is how long a tripped source rests before a
// probe is allowed through.
const DefaultBreakerCooldown = 2 * time.Second

// ErrSourceTripped rejects an operation because the source's circuit
// breaker is open (or its single half-open probe is already in flight).
var ErrSourceTripped = errors.New("planner: source circuit breaker open")

func (p BreakerPolicy) params() (threshold int, cooldown time.Duration) {
	threshold = p.Threshold
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	cooldown = p.Cooldown
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	return threshold, cooldown
}

// breaker states, held on the dispatcher (access.go).
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// allow admits one attempt against the source, or rejects it with
// ErrSourceTripped while the breaker is open (transitioning open →
// half-open once the cooldown has elapsed, and admitting exactly one
// probe in half-open). probe reports whether the admitted attempt is that
// half-open probe; the caller must resolve a probe with succeed, fail, or
// abandon, passing the flag back.
func (d *dispatcher) allow(pol BreakerPolicy) (probe bool, err error) {
	d.bmu.Lock()
	defer d.bmu.Unlock()
	switch d.bstate {
	case breakerOpen:
		wait := time.Until(d.bopenUntil)
		if wait > 0 {
			return false, fmt.Errorf("%w (cooling down %v)", ErrSourceTripped, wait.Round(time.Millisecond))
		}
		d.bstate = breakerHalfOpen
		d.bprobing = true
		return true, nil
	case breakerHalfOpen:
		if d.bprobing {
			return false, fmt.Errorf("%w (probe in flight)", ErrSourceTripped)
		}
		d.bprobing = true
		return true, nil
	default:
		return false, nil
	}
}

// succeed records a successful source operation: while closed the
// consecutive-failure count resets, and the half-open probe's success
// closes the breaker. A success landing while the breaker is open (an
// operation admitted before the trip that finished late) is ignored — it
// must not cut the cooldown short.
func (d *dispatcher) succeed(probe bool) {
	d.bmu.Lock()
	defer d.bmu.Unlock()
	if probe {
		d.bprobing = false
		d.bfails = 0
		d.bstate = breakerClosed
		return
	}
	if d.bstate == breakerClosed {
		d.bfails = 0
	}
}

// fail records a source failure, reporting true when this failure tripped
// the breaker (closed past the threshold, or the half-open probe failing
// back to open). Failures landing while open, or non-probe failures
// landing while half-open (stale operations admitted before the trip),
// change nothing — only the probe's verdict resolves half-open.
func (d *dispatcher) fail(pol BreakerPolicy, probe bool) bool {
	threshold, cooldown := pol.params()
	d.bmu.Lock()
	defer d.bmu.Unlock()
	if probe {
		d.bprobing = false
		d.bstate = breakerOpen
		d.bopenUntil = time.Now().Add(cooldown)
		return true
	}
	if d.bstate == breakerClosed {
		d.bfails++
		if d.bfails >= threshold {
			d.bstate = breakerOpen
			d.bopenUntil = time.Now().Add(cooldown)
			return true
		}
	}
	return false
}

// abandon resolves an admitted attempt whose outcome will never be
// reported — the query's context died mid-flight, which says nothing
// about the source's health. For the half-open probe that still must
// release the probe slot: the breaker returns to open with a fresh
// cooldown so a later query can probe again, instead of "probe in
// flight" wedging the source forever. Abandoning a non-probe attempt is
// a no-op.
func (d *dispatcher) abandon(pol BreakerPolicy, probe bool) {
	if !probe {
		return
	}
	_, cooldown := pol.params()
	d.bmu.Lock()
	defer d.bmu.Unlock()
	d.bprobing = false
	if d.bstate == breakerHalfOpen {
		d.bstate = breakerOpen
		d.bopenUntil = time.Now().Add(cooldown)
	}
}

// breakerState snapshots the breaker for tests and introspection.
func (d *dispatcher) breakerState() int {
	d.bmu.Lock()
	defer d.bmu.Unlock()
	return d.bstate
}
