package planner

// The fault-injection (chaos) suite: deterministic failure scripts driven
// through wrappertest.Flaky pin the engine's retry, circuit-breaker and
// partial-results behavior — exact attempt counts, exact breaker
// transitions, and partial answers compared tuple-for-tuple against the
// no-fault run. Everything here must stay green under -race -count=2
// (make test-chaos).

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/relalg"
	"repro/internal/sqlparse"
	"repro/internal/store"
	"repro/internal/web"
	"repro/internal/wrapper"
	"repro/internal/wrapper/wrappertest"
)

// chaosDB builds a single-table source: table holds n rows lo..lo+n-1.
func chaosDB(source, table string, lo, n int) *store.DB {
	db := store.NewDB(source)
	tab := db.MustCreateTable(table, relalg.NewSchema(
		relalg.Column{Name: "n", Type: relalg.KindNumber}))
	for i := 0; i < n; i++ {
		tab.MustInsert(relalg.NumV(float64(lo + i)))
	}
	return db
}

// chaosFixture wires three disjoint single-table sources, each behind a
// Flaky fault injector and a Counter (Counter outermost, so it sees every
// attempt the engine makes), plus the 3-branch union mediation over them.
type chaosFixture struct {
	cat     *Catalog
	flaky   map[string]*wrappertest.Flaky
	counter map[string]*wrappertest.Counter
	med     *core.Mediation
}

func newChaosFixture(t *testing.T) *chaosFixture {
	t.Helper()
	f := &chaosFixture{
		cat:     NewCatalog(),
		flaky:   map[string]*wrappertest.Flaky{},
		counter: map[string]*wrappertest.Counter{},
	}
	for i, s := range []struct {
		source, table string
		lo            int
	}{
		{"srcA", "ta", 0},
		{"srcB", "tb", 10},
		{"srcC", "tc", 20},
	} {
		fl := wrappertest.NewFlaky(wrapper.NewRelational(chaosDB(s.source, s.table, s.lo, 3)))
		ctr := wrappertest.NewCounter(fl)
		f.cat.MustAddSource(ctr)
		f.flaky[s.source] = fl
		f.counter[s.source] = ctr
		_ = i
	}
	f.med = &core.Mediation{Branches: []*sqlparse.Select{
		mustSelect(t, "SELECT ta.n FROM ta"),
		mustSelect(t, "SELECT tb.n FROM tb"),
		mustSelect(t, "SELECT tc.n FROM tc"),
	}}
	return f
}

func mustSelect(t *testing.T, sql string) *sqlparse.Select {
	t.Helper()
	sel, ok := sqlparse.MustParse(sql).(*sqlparse.Select)
	if !ok {
		t.Fatalf("%s is not a select", sql)
	}
	return sel
}

// assertNoLeakedSlots checks every dispatcher pool is fully released —
// a failure or retry path that leaks (or double-frees, which panics) an
// admission slot would eventually wedge the executor.
func assertNoLeakedSlots(t *testing.T, ex *Executor) {
	t.Helper()
	ex.disp.mu.Lock()
	defer ex.disp.mu.Unlock()
	for src, d := range ex.disp.m {
		if n := len(d.slots); n != 0 {
			t.Errorf("source %s: %d dispatcher slot(s) still held after query end", src, n)
		}
	}
}

// runPartial executes the fixture's mediation under Limits.PartialResults
// and returns the answer plus the session's warnings.
func runPartial(t *testing.T, ex *Executor, med *core.Mediation) (*relalg.Relation, []Warning, error) {
	t.Helper()
	sess := ex.NewSession(context.Background(), Limits{PartialResults: true})
	defer sess.Close()
	rel, err := executeMediationSession(ex, sess, med)
	return rel, sess.Warnings(), err
}

// TestChaosPartialVsFailFast is the headline acceptance scenario: a
// 3-branch mediation with one permanently dead source. Fail-fast (the
// default) reports the failed source; partial-results mode returns
// exactly the two healthy branches' no-fault answer plus a structured
// warning naming the dead source.
func TestChaosPartialVsFailFast(t *testing.T) {
	// The no-fault answer, and the answer of just the healthy branches.
	clean := newChaosFixture(t)
	want, err := executeMediation(bg, NewExecutor(clean.cat), clean.med)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() != 9 {
		t.Fatalf("no-fault answer = %s", want)
	}
	survivors := &core.Mediation{Branches: []*sqlparse.Select{
		clean.med.Branches[0], clean.med.Branches[2]}}
	wantPartial, err := executeMediation(bg, NewExecutor(newChaosFixture(t).cat), survivors)
	if err != nil {
		t.Fatal(err)
	}

	// Fail-fast: the query fails, attributed to srcB.
	f := newChaosFixture(t)
	f.flaky["srcB"].FailAlways(wrapper.Permanent(errors.New("source decommissioned")))
	ex := NewExecutor(f.cat)
	_, err = executeMediation(bg, ex, f.med)
	var se *SourceError
	if !errors.As(err, &se) || se.Source != "srcB" {
		t.Fatalf("fail-fast error = %v, want SourceError for srcB", err)
	}
	assertNoLeakedSlots(t, ex)

	// Partial: the two healthy branches' exact answer, one warning.
	f = newChaosFixture(t)
	f.flaky["srcB"].FailAlways(wrapper.Permanent(errors.New("source decommissioned")))
	ex = NewExecutor(f.cat)
	got, warns, err := runPartial(t, ex, f.med)
	if err != nil {
		t.Fatalf("partial: %v", err)
	}
	if !sameTuples(got, wantPartial) {
		t.Errorf("partial answer:\n%s\nwant:\n%s", got, wantPartial)
	}
	if len(warns) != 1 || warns[0].Branch != 2 || warns[0].Source != "srcB" {
		t.Errorf("partial warnings = %+v, want one naming branch 2 / srcB", warns)
	}
	if st := ex.Stats(); st.BranchesFailed != 1 {
		t.Errorf("BranchesFailed = %d, want 1", st.BranchesFailed)
	}
	// The healthy sources each served their one query.
	if q := f.counter["srcA"].Queries() + f.counter["srcC"].Queries(); q != 2 {
		t.Errorf("healthy sources saw %d queries, want 2", q)
	}
	assertNoLeakedSlots(t, ex)
}

// TestPartialAllBranchesDegraded: when every branch dies the stream is
// already in the receiver's hands, so the answer is empty plus a warning
// per branch — not an error. The contract is stated on MediationStream.
func TestPartialAllBranchesDegraded(t *testing.T) {
	f := newChaosFixture(t)
	for _, fl := range f.flaky {
		fl.FailAlways(wrapper.Transient(errors.New("everything is down")))
	}
	ex := NewExecutor(f.cat)
	got, warns, err := runPartial(t, ex, f.med)
	if err != nil {
		t.Fatalf("all-degraded: %v", err)
	}
	if got.Len() != 0 {
		t.Errorf("all-degraded answer = %s, want empty", got)
	}
	if len(warns) != 3 {
		t.Errorf("all-degraded warnings = %+v, want 3", warns)
	}
	if st := ex.Stats(); st.BranchesFailed != 3 {
		t.Errorf("BranchesFailed = %d, want 3", st.BranchesFailed)
	}
	assertNoLeakedSlots(t, ex)
}

// TestRetryFailTwiceThenSucceed: a source that fails its first two
// queries and then recovers yields the full answer with exactly two
// retries in ExecStats — and the source saw exactly three attempts.
func TestRetryFailTwiceThenSucceed(t *testing.T) {
	f := newChaosFixture(t)
	f.flaky["srcA"].FailNext(2, wrapper.Transient(errors.New("blip")))
	ex := NewExecutor(f.cat)
	ex.Retry = RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond}

	got, err := execute(bg, ex, f.med.Branches[0])
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Errorf("answer = %s, want ta's 3 rows", got)
	}
	st := ex.Stats()
	if st.Retries != 2 {
		t.Errorf("ExecStats.Retries = %d, want exactly 2", st.Retries)
	}
	if st.BreakerTrips != 0 {
		t.Errorf("BreakerTrips = %d, want 0 (two failures, default threshold)", st.BreakerTrips)
	}
	if q := f.counter["srcA"].Queries(); q != 3 {
		t.Errorf("source saw %d attempts, want 3", q)
	}
	if st.SourceQueries != 1 {
		t.Errorf("SourceQueries = %d, want 1 (retries are not new logical queries)", st.SourceQueries)
	}
	assertNoLeakedSlots(t, ex)
}

// TestRetryStopsOnPermanentFault: classification gates the loop — a
// permanent fault is not retried even with attempts left.
func TestRetryStopsOnPermanentFault(t *testing.T) {
	f := newChaosFixture(t)
	f.flaky["srcA"].FailAlways(wrapper.Permanent(errors.New("no such table")))
	ex := NewExecutor(f.cat)
	ex.Retry = RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Millisecond}

	_, err := execute(bg, ex, f.med.Branches[0])
	if !errors.Is(err, wrapper.ErrPermanent) {
		t.Fatalf("err = %v, want the permanent fault", err)
	}
	if q := f.counter["srcA"].Queries(); q != 1 {
		t.Errorf("source saw %d attempts, want 1 (permanent faults are not retried)", q)
	}
	if st := ex.Stats(); st.Retries != 0 {
		t.Errorf("Retries = %d, want 0", st.Retries)
	}
	assertNoLeakedSlots(t, ex)
}

// TestRetryBudgetCapsRetries: the session-wide governor stops the retry
// loop even while the per-operation policy has attempts left.
func TestRetryBudgetCapsRetries(t *testing.T) {
	f := newChaosFixture(t)
	f.flaky["srcA"].FailNext(5, wrapper.Transient(errors.New("blip")))
	ex := NewExecutor(f.cat)
	ex.Retry = RetryPolicy{MaxAttempts: 10, BaseBackoff: time.Millisecond}

	sess := ex.NewSession(context.Background(), Limits{RetryBudget: 2})
	defer sess.Close()
	_, err := ex.ExecuteSession(sess, f.med.Branches[0])
	if !Degradable(err) {
		t.Fatalf("err = %v, want a SourceError once the budget is spent", err)
	}
	if q := f.counter["srcA"].Queries(); q != 3 {
		t.Errorf("source saw %d attempts, want 3 (1 initial + 2 budgeted retries)", q)
	}
	if st := ex.Stats(); st.Retries != 2 {
		t.Errorf("Retries = %d, want 2", st.Retries)
	}
	assertNoLeakedSlots(t, ex)
}

// TestRetryRateLimitedHonorsHint: a 429-style fault's Retry-After hint is
// a floor under the backoff wait.
func TestRetryRateLimitedHonorsHint(t *testing.T) {
	const hint = 30 * time.Millisecond
	f := newChaosFixture(t)
	f.flaky["srcA"].FailNext(1, wrapper.RateLimited(errors.New("shed load"), hint))
	ex := NewExecutor(f.cat)
	ex.Retry = RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}

	start := time.Now()
	got, err := execute(bg, ex, f.med.Branches[0])
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Errorf("answer = %s", got)
	}
	if elapsed := time.Since(start); elapsed < hint {
		t.Errorf("retried after %v, want at least the source's %v hint", elapsed, hint)
	}
	assertNoLeakedSlots(t, ex)
}

// TestRetryMidStreamRecovery: a scan stream dying after delivering 3
// tuples is re-opened and the replayed prefix deduplicated — the answer
// is exactly the no-fault answer, and the replayed tuples are still
// charged to the transfer governor (honest accounting).
func TestRetryMidStreamRecovery(t *testing.T) {
	const rows = 8
	db := chaosDB("bigsrc", "big", 0, rows)
	fl := wrappertest.NewFlaky(wrapper.NewRelational(db))
	fl.FailAtTuple(3, wrapper.Transient(errors.New("connection reset mid-stream")))
	ctr := wrappertest.NewCounter(fl)
	cat := NewCatalog()
	cat.MustAddSource(ctr)
	ex := NewExecutor(cat)
	ex.Retry = RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond}

	got, err := execute(bg, ex, mustSelect(t, "SELECT big.n FROM big"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != rows {
		t.Fatalf("answer = %s, want all %d rows exactly once", got, rows)
	}
	st := ex.Stats()
	if st.Retries != 1 {
		t.Errorf("Retries = %d, want 1", st.Retries)
	}
	if q := ctr.Queries(); q != 2 {
		t.Errorf("source saw %d opens, want 2", q)
	}
	// 3 tuples before the fault + the full 8-row replay: all 11 pulls are
	// charged, even though 3 replays were suppressed from the answer.
	if st.TuplesTransferred != rows+3 {
		t.Errorf("TuplesTransferred = %d, want %d (replayed prefix still counts)",
			st.TuplesTransferred, rows+3)
	}
	assertNoLeakedSlots(t, ex)
}

// TestRetryMidStreamWithoutRetriesFailsButKeepsDelivered: with retrying
// off (the default), a mid-stream death is a SourceError; under partial
// results the tuples already delivered stay in the answer and the branch
// is marked degraded.
func TestRetryMidStreamWithoutRetriesFailsButKeepsDelivered(t *testing.T) {
	f := newChaosFixture(t)
	f.flaky["srcA"].FailAtTuple(2, wrapper.Transient(errors.New("reset")))
	ex := NewExecutor(f.cat)
	_, err := execute(bg, ex, f.med.Branches[0])
	if !Degradable(err) {
		t.Fatalf("err = %v, want SourceError", err)
	}
	assertNoLeakedSlots(t, ex)

	f = newChaosFixture(t)
	f.flaky["srcA"].FailAtTuple(2, wrapper.Transient(errors.New("reset")))
	ex = NewExecutor(f.cat)
	got, warns, err := runPartial(t, ex, f.med)
	if err != nil {
		t.Fatal(err)
	}
	// Branch 1 delivered 2 of its 3 rows before dying; branches 2 and 3
	// are whole. 8 rows, one warning.
	if got.Len() != 8 {
		t.Errorf("partial answer = %s, want 8 rows (2 delivered + 6 healthy)", got)
	}
	if len(warns) != 1 || warns[0].Branch != 1 || warns[0].Source != "srcA" {
		t.Errorf("warnings = %+v", warns)
	}
	assertNoLeakedSlots(t, ex)
}

// TestBreakerTripsAndRecovers walks the full state machine: Threshold
// consecutive failures trip closed→open, the open breaker rejects without
// contacting the source, the cooldown admits a half-open probe, and the
// probe's success closes the breaker again.
func TestBreakerTripsAndRecovers(t *testing.T) {
	const cooldown = 25 * time.Millisecond
	f := newChaosFixture(t)
	f.flaky["srcA"].FailNext(3, wrapper.Transient(errors.New("down")))
	ex := NewExecutor(f.cat)
	ex.Breaker = BreakerPolicy{Threshold: 3, Cooldown: cooldown}
	sel := f.med.Branches[0]

	for i := 0; i < 3; i++ {
		if _, err := execute(bg, ex, sel); err == nil {
			t.Fatalf("query %d unexpectedly succeeded", i+1)
		}
	}
	if st := ex.Stats(); st.BreakerTrips != 1 {
		t.Fatalf("BreakerTrips = %d, want 1 after threshold failures", st.BreakerTrips)
	}
	d := ex.disp.get("srcA", 0)
	if d.breakerState() != breakerOpen {
		t.Fatalf("breaker state = %d, want open", d.breakerState())
	}

	// While open: rejected immediately, the source is not contacted.
	before := f.counter["srcA"].Queries()
	_, err := execute(bg, ex, sel)
	if !errors.Is(err, ErrSourceTripped) {
		t.Fatalf("open-breaker error = %v, want ErrSourceTripped", err)
	}
	if !Degradable(err) {
		t.Error("tripped-breaker rejection is not source-attributed")
	}
	if wrapper.Retryable(err) {
		t.Error("ErrSourceTripped must not be retryable")
	}
	if after := f.counter["srcA"].Queries(); after != before {
		t.Errorf("open breaker let %d attempt(s) through", after-before)
	}

	// After the cooldown the probe is admitted; the script is exhausted,
	// so it succeeds and the breaker closes.
	time.Sleep(cooldown + 10*time.Millisecond)
	got, err := execute(bg, ex, sel)
	if err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	if got.Len() != 3 {
		t.Errorf("probe answer = %s", got)
	}
	if d.breakerState() != breakerClosed {
		t.Errorf("breaker state after successful probe = %d, want closed", d.breakerState())
	}
	assertNoLeakedSlots(t, ex)
}

// TestBreakerHalfOpenProbeFailureReopens: a failing probe re-opens the
// breaker for another full cooldown (and counts as a trip).
func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	const cooldown = 25 * time.Millisecond
	f := newChaosFixture(t)
	f.flaky["srcA"].FailNext(4, wrapper.Transient(errors.New("down")))
	ex := NewExecutor(f.cat)
	ex.Breaker = BreakerPolicy{Threshold: 3, Cooldown: cooldown}
	sel := f.med.Branches[0]

	for i := 0; i < 3; i++ {
		execute(bg, ex, sel)
	}
	time.Sleep(cooldown + 10*time.Millisecond)
	if _, err := execute(bg, ex, sel); err == nil {
		t.Fatal("failing probe unexpectedly succeeded")
	}
	d := ex.disp.get("srcA", 0)
	if d.breakerState() != breakerOpen {
		t.Fatalf("breaker state after failed probe = %d, want open again", d.breakerState())
	}
	if st := ex.Stats(); st.BreakerTrips != 2 {
		t.Errorf("BreakerTrips = %d, want 2 (threshold trip + failed probe)", st.BreakerTrips)
	}
	if _, err := execute(bg, ex, sel); !errors.Is(err, ErrSourceTripped) {
		t.Errorf("post-probe error = %v, want ErrSourceTripped", err)
	}
	time.Sleep(cooldown + 10*time.Millisecond)
	if _, err := execute(bg, ex, sel); err != nil {
		t.Errorf("recovered probe: %v", err)
	}
	if d.breakerState() != breakerClosed {
		t.Errorf("final breaker state = %d, want closed", d.breakerState())
	}
	assertNoLeakedSlots(t, ex)
}

// TestBreakerProbeAbandonedOnContextDeath: the breaker is executor-level
// state shared by every session, so a query whose context dies while its
// attempt holds the half-open probe slot must release it. The breaker
// returns to open with a fresh cooldown — not wedged in "probe in
// flight" forever — and a later query probes and recovers the source.
func TestBreakerProbeAbandonedOnContextDeath(t *testing.T) {
	const cooldown = 25 * time.Millisecond
	f := newChaosFixture(t)
	f.flaky["srcA"].FailNext(1, wrapper.Transient(errors.New("down")))
	ex := NewExecutor(f.cat)
	ex.Breaker = BreakerPolicy{Threshold: 1, Cooldown: cooldown}
	w := f.counter["srcA"]
	d := ex.dispatcherFor(w)

	if _, err := execute(bg, ex, f.med.Branches[0]); err == nil {
		t.Fatal("tripping query unexpectedly succeeded")
	}
	if d.breakerState() != breakerOpen {
		t.Fatalf("breaker state = %d, want open after trip", d.breakerState())
	}

	// After the cooldown the next attempt is admitted as the half-open
	// probe; its query context dies mid-flight, so its verdict never
	// arrives.
	time.Sleep(cooldown + 10*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	sess := ex.NewSession(ctx, Limits{})
	err := ex.withRetry(ctx, sess, w, func() error {
		cancel()
		return wrapper.Transient(errors.New("cut off mid-flight"))
	})
	sess.Close()
	if err == nil {
		t.Fatal("dead-context probe unexpectedly succeeded")
	}
	if Degradable(err) {
		t.Errorf("context-death error = %v, want raw (not source-attributed)", err)
	}
	if d.breakerState() != breakerOpen {
		t.Fatalf("breaker state after abandoned probe = %d, want open with a fresh cooldown", d.breakerState())
	}

	// The probe slot was released: after another cooldown a new probe is
	// admitted (the fault script is exhausted) and closes the breaker.
	time.Sleep(cooldown + 10*time.Millisecond)
	got, err := execute(bg, ex, f.med.Branches[0])
	if err != nil {
		t.Fatalf("probe after abandonment: %v", err)
	}
	if got.Len() != 3 {
		t.Errorf("recovered answer = %s, want ta's 3 rows", got)
	}
	if d.breakerState() != breakerClosed {
		t.Errorf("final breaker state = %d, want closed", d.breakerState())
	}
	assertNoLeakedSlots(t, ex)
}

// TestBreakerStaleOutcomesDoNotMoveBreaker: an operation admitted while
// the breaker was still closed may finish after a trip. Its late success
// must not short the cooldown by closing the open breaker, and its late
// failure while another attempt holds the half-open probe is not the
// probe's verdict.
func TestBreakerStaleOutcomesDoNotMoveBreaker(t *testing.T) {
	pol := BreakerPolicy{Threshold: 1, Cooldown: time.Minute}
	d := newDispatcher(1)

	// A slow operation is admitted while closed...
	slowProbe, err := d.allow(pol)
	if err != nil || slowProbe {
		t.Fatalf("closed-state admission = (probe=%v, err=%v), want plain admission", slowProbe, err)
	}
	// ...then a sibling's failure trips the breaker...
	if !d.fail(pol, false) {
		t.Fatal("threshold failure did not trip")
	}
	if d.breakerState() != breakerOpen {
		t.Fatalf("state = %d, want open", d.breakerState())
	}
	// ...and the slow operation's late success must not bypass the
	// cooldown.
	d.succeed(slowProbe)
	if d.breakerState() != breakerOpen {
		t.Errorf("stale success closed an open breaker (state = %d)", d.breakerState())
	}

	// Half-open with the probe in flight: a stale failure is not the
	// probe's verdict and must not re-open (or count as a trip).
	d.bmu.Lock()
	d.bstate = breakerHalfOpen
	d.bprobing = true
	d.bmu.Unlock()
	if d.fail(pol, false) {
		t.Error("stale failure during half-open counted as a trip")
	}
	if d.breakerState() != breakerHalfOpen {
		t.Errorf("stale failure moved half-open breaker (state = %d)", d.breakerState())
	}
	// The real probe's verdict still resolves the state.
	d.succeed(true)
	if d.breakerState() != breakerClosed {
		t.Errorf("probe success did not close (state = %d)", d.breakerState())
	}
}

// TestBreakerTripShortCircuitsRetry: when an attempt's own failure trips
// the breaker, retrying is a guaranteed ErrSourceTripped rejection — the
// loop must stop immediately, charging no retry, burning no backoff, and
// reporting the actual source fault rather than the breaker rejection.
func TestBreakerTripShortCircuitsRetry(t *testing.T) {
	f := newChaosFixture(t)
	f.flaky["srcA"].FailAlways(wrapper.Transient(errors.New("down")))
	ex := NewExecutor(f.cat)
	ex.Retry = RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond}
	ex.Breaker = BreakerPolicy{Threshold: 1, Cooldown: time.Minute}

	_, err := execute(bg, ex, f.med.Branches[0])
	if err == nil {
		t.Fatal("query against dead source unexpectedly succeeded")
	}
	if errors.Is(err, ErrSourceTripped) {
		t.Errorf("err = %v, want the underlying source fault, not the breaker rejection", err)
	}
	if !strings.Contains(err.Error(), "down") {
		t.Errorf("err = %v does not carry the source fault", err)
	}
	if q := f.counter["srcA"].Queries(); q != 1 {
		t.Errorf("source saw %d attempts, want 1 (no retry into the breaker this failure just opened)", q)
	}
	st := ex.Stats()
	if st.Retries != 0 {
		t.Errorf("Retries = %d, want 0", st.Retries)
	}
	if st.BreakerTrips != 1 {
		t.Errorf("BreakerTrips = %d, want 1", st.BreakerTrips)
	}
	assertNoLeakedSlots(t, ex)
}

// TestBreakerDegradesUnderPartial: a branch rejected by an open breaker
// degrades like any other source fault — partial answers keep flowing
// while the source cools down, without contacting it.
func TestBreakerDegradesUnderPartial(t *testing.T) {
	f := newChaosFixture(t)
	f.flaky["srcB"].FailAlways(wrapper.Transient(errors.New("down")))
	ex := NewExecutor(f.cat)
	ex.Breaker = BreakerPolicy{Threshold: 1, Cooldown: time.Minute}

	// First partial query trips the breaker on srcB's real failure.
	if _, warns, err := runPartial(t, ex, f.med); err != nil || len(warns) != 1 {
		t.Fatalf("first partial run: err=%v warns=%+v", err, warns)
	}
	if st := ex.Stats(); st.BreakerTrips != 1 {
		t.Fatalf("BreakerTrips = %d, want 1", st.BreakerTrips)
	}
	// Second query: the breaker rejects srcB up front; still a partial
	// answer, the warning now carries the breaker rejection.
	before := f.counter["srcB"].Queries()
	got, warns, err := runPartial(t, ex, f.med)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 6 {
		t.Errorf("answer = %s, want srcA+srcC's 6 rows", got)
	}
	if len(warns) != 1 || warns[0].Source != "srcB" ||
		!strings.Contains(warns[0].Message, "circuit breaker open") {
		t.Errorf("warnings = %+v, want breaker rejection for srcB", warns)
	}
	if after := f.counter["srcB"].Queries(); after != before {
		t.Errorf("open breaker contacted the source %d time(s)", after-before)
	}
	assertNoLeakedSlots(t, ex)
}

// TestChaosDispatcherDoubleReleasePanics pins the slot-accounting guard:
// releasing a slot that was never acquired must panic loudly instead of
// silently widening the admission pool.
func TestChaosDispatcherDoubleReleasePanics(t *testing.T) {
	d := newDispatcher(1)
	if err := d.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	d.release()
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	d.release()
}

// TestPartialPaperQ1CurrencySourceDown runs the paper's own Q1 mediation
// with the currency Web source dead: fail-fast attributes the failure to
// currencyweb, partial mode answers with exactly the branches that do not
// need r3 and warns about the ones that did.
func TestPartialPaperQ1CurrencySourceDown(t *testing.T) {
	med, err := core.New(fixture.Registry()).MediateSQL(fixture.PaperQ1, "c2")
	if err != nil {
		t.Fatal(err)
	}

	paperChaosCatalog := func() (*Catalog, *wrappertest.Flaky) {
		dbs := fixture.Databases()
		cat := NewCatalog()
		cat.MustAddSource(wrapper.NewRelational(dbs["source1"]))
		cat.MustAddSource(wrapper.NewRelational(dbs["source2"]))
		site := web.NewCurrencySite(web.PaperRates())
		fl := wrappertest.NewFlaky(wrapper.NewWeb("currencyweb",
			site, wrapper.MustParseSpec(wrapper.CurrencySpecCrawl)))
		cat.MustAddSource(fl)
		return cat, fl
	}

	// Expected partial answer: the mediation restricted to branches that
	// never mention r3, run fault-free.
	var healthy []*sqlparse.Select
	for _, b := range med.Branches {
		if !strings.Contains(b.String(), "r3") {
			healthy = append(healthy, b)
		}
	}
	if len(healthy) == 0 || len(healthy) == len(med.Branches) {
		t.Fatalf("fixture drift: %d/%d branches avoid r3", len(healthy), len(med.Branches))
	}
	cat, _ := paperChaosCatalog()
	want, err := executeMediation(bg, NewExecutor(cat), &core.Mediation{Branches: healthy, UnionAll: med.UnionAll})
	if err != nil {
		t.Fatal(err)
	}

	// Fail-fast: the query dies, blamed on currencyweb.
	cat, fl := paperChaosCatalog()
	fl.FailAlways(wrapper.Transient(errors.New("currency site down")))
	ex := NewExecutor(cat)
	_, err = executeMediation(bg, ex, med)
	var se *SourceError
	if !errors.As(err, &se) || se.Source != "currencyweb" {
		t.Fatalf("fail-fast err = %v, want SourceError for currencyweb", err)
	}
	assertNoLeakedSlots(t, ex)

	// Partial: the conversion-free branches answer, with warnings naming
	// the dead source.
	cat, fl = paperChaosCatalog()
	fl.FailAlways(wrapper.Transient(errors.New("currency site down")))
	ex = NewExecutor(cat)
	got, warns, err := runPartial(t, ex, med)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTuples(got, want) {
		t.Errorf("partial answer:\n%s\nwant:\n%s", got, want)
	}
	if len(warns) != len(med.Branches)-len(healthy) {
		t.Errorf("warnings = %+v, want %d", warns, len(med.Branches)-len(healthy))
	}
	for _, w := range warns {
		if w.Source != "currencyweb" {
			t.Errorf("warning %+v does not name currencyweb", w)
		}
	}
	assertNoLeakedSlots(t, ex)
}
