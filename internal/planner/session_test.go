package planner

// Tests for the query-session layer: cancellation propagating all the way
// into source fetches mid-stream, deadlines, the resource governors
// (max tuples transferred), and the no-leak property of
// iterator trees (every source stream opened is closed, on success, early
// exit and error paths alike).

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/relalg"
	"repro/internal/sqlparse"
	"repro/internal/store"
	"repro/internal/wrapper"
	"repro/internal/wrapper/wrappertest"
)

// trackingWrapper wraps a source and counts every tuple stream handed to
// the engine and every stream closed — the leak detector for iterator
// trees. With failAfter > 0, each stream errors after that many tuples,
// exercising the mid-stream error paths.
type trackingWrapper struct {
	wrapper.Wrapper
	failAfter int

	mu     sync.Mutex
	opened int
	closed int
}

func (t *trackingWrapper) QueryStream(ctx context.Context, q wrapper.SourceQuery) (wrapper.TupleStream, error) {
	st, err := wrapper.QueryStream(ctx, t.Wrapper, q)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.opened++
	t.mu.Unlock()
	return &trackStream{TupleStream: st, w: t, failAfter: t.failAfter}, nil
}

func (t *trackingWrapper) counts() (opened, closed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.opened, t.closed
}

func (t *trackingWrapper) assertBalanced(tt *testing.T) {
	tt.Helper()
	opened, closed := t.counts()
	if opened != closed {
		tt.Errorf("stream leak: %d opened, %d closed", opened, closed)
	}
}

type trackStream struct {
	wrapper.TupleStream
	w         *trackingWrapper
	failAfter int
	served    int
	done      bool
}

func (s *trackStream) Next() (relalg.Tuple, bool, error) {
	if s.failAfter > 0 && s.served >= s.failAfter {
		return nil, false, fmt.Errorf("tracked source: injected failure after %d tuples", s.served)
	}
	t, ok, err := s.TupleStream.Next()
	if ok {
		s.served++
	}
	return t, ok, err
}

func (s *trackStream) Close() error {
	if !s.done {
		s.done = true
		s.w.mu.Lock()
		s.w.closed++
		s.w.mu.Unlock()
	}
	return s.TupleStream.Close()
}

// trackedCatalog wires bigCatalog's data behind a trackingWrapper.
func trackedCatalog(n, failAfter int) (*Catalog, *trackingWrapper) {
	db := store.NewDB("bigsrc")
	tab := db.MustCreateTable("nums", relalg.NewSchema(
		relalg.Column{Name: "n", Type: relalg.KindNumber},
		relalg.Column{Name: "grp", Type: relalg.KindString},
	))
	for i := 0; i < n; i++ {
		g := "even"
		if i%2 == 1 {
			g = "odd"
		}
		tab.MustInsert(relalg.NumV(float64(i)), relalg.StrV(g))
	}
	tw := &trackingWrapper{Wrapper: wrapper.NewRelational(db), failAfter: failAfter}
	cat := NewCatalog()
	cat.MustAddSource(tw)
	return cat, tw
}

// TestCancelStopsSourceFetchesMidStream is the acceptance criterion of
// the session refactor: cancelling an in-flight streaming query over a
// 50k-row source stops the transfer within one chunk — the stream notices
// ctx.Err() on its very next pull, TuplesTransferred stays O(pulled so
// far), and SourceQueries stops growing.
func TestCancelStopsSourceFetchesMidStream(t *testing.T) {
	const source = 50000
	db := store.NewDB("slowsrc")
	tab := db.MustCreateTable("nums", relalg.NewSchema(
		relalg.Column{Name: "n", Type: relalg.KindNumber},
	))
	for i := 0; i < source; i++ {
		tab.MustInsert(relalg.NumV(float64(i)))
	}
	gw := wrappertest.NewGate(wrapper.NewRelational(db))
	cat := NewCatalog()
	cat.MustAddSource(gw)
	ex := NewExecutor(cat)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := execute(ctx, ex, sqlparse.MustParse("SELECT nums.n FROM nums"))
		errc <- err
	}()

	// Let 25 tuples through, then cancel mid-transfer (the stream is
	// blocked offering tuple 26).
	const allowed = 25
	for i := 0; i < allowed; i++ {
		<-gw.Emitted
		gw.Proceed <- struct{}{}
	}
	<-gw.Emitted
	cancel()

	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("query error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query did not return promptly after cancellation")
	}
	st := ex.Stats()
	if st.TuplesTransferred > allowed {
		t.Errorf("TuplesTransferred = %d after cancel, want <= %d (source holds %d)",
			st.TuplesTransferred, allowed, source)
	}
	if st.SourceQueries != 1 {
		t.Errorf("SourceQueries = %d, want 1", st.SourceQueries)
	}
}

// TestCancelStopsMediationBranches: cancelling during branch 1 of a lazy
// mediated union prevents later branches from ever contacting their
// sources — SourceQueries stops growing.
func TestCancelStopsMediationBranches(t *testing.T) {
	db := store.NewDB("src")
	tab := db.MustCreateTable("nums", relalg.NewSchema(
		relalg.Column{Name: "n", Type: relalg.KindNumber},
	))
	for i := 0; i < 100; i++ {
		tab.MustInsert(relalg.NumV(float64(i)))
	}
	gw := wrappertest.NewGate(wrapper.NewRelational(db))
	cat := NewCatalog()
	cat.MustAddSource(gw)
	ex := NewExecutor(cat)

	branches := make([]*sqlparse.Select, 3)
	for i := range branches {
		branches[i] = sqlparse.MustParse("SELECT nums.n FROM nums").(*sqlparse.Select)
	}
	med := &core.Mediation{Branches: branches, UnionAll: true}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := executeMediation(ctx, ex, med)
		errc <- err
	}()
	<-gw.Emitted // branch 1 offers its first tuple
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mediation error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("mediation did not return promptly after cancellation")
	}
	if st := ex.Stats(); st.SourceQueries != 1 || st.BranchesRun != 1 {
		t.Errorf("stats after cancel = %+v, want 1 source query / 1 branch run", st)
	}
}

// TestSessionDeadlineExceeded: a session timeout surfaces as
// context.DeadlineExceeded from a query stuck on a slow source.
func TestSessionDeadlineExceeded(t *testing.T) {
	db := store.NewDB("src")
	tab := db.MustCreateTable("nums", relalg.NewSchema(
		relalg.Column{Name: "n", Type: relalg.KindNumber},
	))
	tab.MustInsert(relalg.NumV(1))
	gw := wrappertest.NewGate(wrapper.NewRelational(db))
	cat := NewCatalog()
	cat.MustAddSource(gw)
	ex := NewExecutor(cat)

	sess := ex.NewSession(context.Background(), Limits{Timeout: 30 * time.Millisecond})
	defer sess.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := ex.ExecuteSession(sess, sqlparse.MustParse("SELECT nums.n FROM nums"))
		errc <- err
	}()
	// Never allow the gate: the source hangs until the deadline fires.
	select {
	case err := <-errc:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("query error = %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadline did not fire")
	}
}

// TestMaxTuplesGovernor: a session transferring more source tuples than
// its budget aborts with ErrTuplesExceeded instead of draining the
// source.
func TestMaxTuplesGovernor(t *testing.T) {
	ex := NewExecutor(bigCatalog(1000))
	sess := ex.NewSession(context.Background(), Limits{MaxTuples: 100})
	defer sess.Close()
	_, err := ex.ExecuteSession(sess, sqlparse.MustParse("SELECT nums.n FROM nums"))
	if !errors.Is(err, ErrTuplesExceeded) {
		t.Fatalf("err = %v, want ErrTuplesExceeded", err)
	}
	if st := ex.Stats(); st.TuplesTransferred > 150 {
		t.Errorf("TuplesTransferred = %d, want to stop near the 100-tuple budget", st.TuplesTransferred)
	}
}

// TestMaxTuplesGovernorUnderLimitPasses: a query within budget runs to
// completion.
func TestMaxTuplesGovernorUnderLimitPasses(t *testing.T) {
	ex := NewExecutor(bigCatalog(50))
	sess := ex.NewSession(context.Background(), Limits{MaxTuples: 100})
	defer sess.Close()
	res, err := ex.ExecuteSession(sess, sqlparse.MustParse("SELECT nums.n FROM nums"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 50 {
		t.Fatalf("got %d rows", res.Len())
	}
	if sess.TuplesTransferred() != 50 {
		t.Errorf("session counted %d tuples, want 50", sess.TuplesTransferred())
	}
}

// TestStreamsClosedOnAllPaths is the leak-tracking audit: across a full
// drain, an early exit, a mid-stream source failure, a canceled context
// and a lazily-satisfied mediation, every source stream the engine opened
// must be closed exactly once.
func TestStreamsClosedOnAllPaths(t *testing.T) {
	t.Run("full drain", func(t *testing.T) {
		cat, tw := trackedCatalog(500, 0)
		ex := NewExecutor(cat)
		if _, err := execute(bg, ex, sqlparse.MustParse("SELECT nums.n FROM nums")); err != nil {
			t.Fatal(err)
		}
		tw.assertBalanced(t)
	})

	t.Run("early exit", func(t *testing.T) {
		cat, tw := trackedCatalog(500, 0)
		ex := NewExecutor(cat)
		if _, err := execute(bg, ex, sqlparse.MustParse("SELECT nums.n FROM nums LIMIT 3")); err != nil {
			t.Fatal(err)
		}
		tw.assertBalanced(t)
	})

	t.Run("self join", func(t *testing.T) {
		cat, tw := trackedCatalog(100, 0)
		ex := NewExecutor(cat)
		if _, err := execute(bg, ex, sqlparse.MustParse(
			"SELECT a.n FROM nums a, nums b WHERE a.n = b.n LIMIT 5")); err != nil {
			t.Fatal(err)
		}
		tw.assertBalanced(t)
	})

	t.Run("mid-stream source failure", func(t *testing.T) {
		cat, tw := trackedCatalog(500, 7)
		ex := NewExecutor(cat)
		if _, err := execute(bg, ex, sqlparse.MustParse("SELECT nums.n FROM nums")); err == nil {
			t.Fatal("expected injected source failure")
		}
		tw.assertBalanced(t)
	})

	t.Run("failure inside a join", func(t *testing.T) {
		cat, tw := trackedCatalog(500, 7)
		ex := NewExecutor(cat)
		if _, err := execute(bg, ex, sqlparse.MustParse(
			"SELECT a.n FROM nums a, nums b WHERE a.n = b.n")); err == nil {
			t.Fatal("expected injected source failure")
		}
		tw.assertBalanced(t)
	})

	t.Run("canceled before open", func(t *testing.T) {
		cat, tw := trackedCatalog(100, 0)
		ex := NewExecutor(cat)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := execute(ctx, ex, sqlparse.MustParse("SELECT nums.n FROM nums")); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		tw.assertBalanced(t)
	})

	t.Run("lazy mediation with limit", func(t *testing.T) {
		cat, tw := trackedCatalog(100, 0)
		ex := NewExecutor(cat)
		b1 := sqlparse.MustParse("SELECT nums.n FROM nums").(*sqlparse.Select)
		b2 := sqlparse.MustParse("SELECT nums.n FROM nums").(*sqlparse.Select)
		med := &core.Mediation{
			Branches: []*sqlparse.Select{b1, b2},
			UnionAll: true,
			Post:     &core.Post{Limit: 3},
		}
		if _, err := executeMediation(bg, ex, med); err != nil {
			t.Fatal(err)
		}
		tw.assertBalanced(t)
	})

	t.Run("aggregate", func(t *testing.T) {
		cat, tw := trackedCatalog(100, 0)
		ex := NewExecutor(cat)
		if _, err := execute(bg, ex, sqlparse.MustParse(
			"SELECT nums.grp, SUM(nums.n) AS total FROM nums GROUP BY nums.grp")); err != nil {
			t.Fatal(err)
		}
		tw.assertBalanced(t)
	})
}

// TestSessionContextIndependentOfParent: closing the session cancels its
// derived context but not the parent's.
func TestSessionContextIndependentOfParent(t *testing.T) {
	ex := NewExecutor(bigCatalog(1))
	parent := context.Background()
	sess := ex.NewSession(parent, Limits{})
	if sess.Context().Err() != nil {
		t.Fatal("fresh session context already dead")
	}
	sess.Close()
	if sess.Context().Err() == nil {
		t.Fatal("closed session context still alive")
	}
	if parent.Err() != nil {
		t.Fatal("closing the session canceled the parent context")
	}
}

// TestZeroLimitsSessionIsUngoverned pins the single remaining "no
// governors" semantics: a session with zero Limits never trips a governor
// — no deadline, no tuple, retry or per-source cap — while the
// session-scoped machinery still applies: identical probes within the
// one session reach the source once.
func TestZeroLimitsSessionIsUngoverned(t *testing.T) {
	const source = 20000
	ex := NewExecutor(bigCatalog(source))
	sess := ex.NewSession(bg, Limits{})
	defer sess.Close()
	if _, ok := sess.Context().Deadline(); ok {
		t.Error("zero-limits session has a deadline")
	}
	res, err := ex.ExecuteSession(sess, sqlparse.MustParse("SELECT nums.n FROM nums ORDER BY nums.n DESC"))
	if err != nil {
		t.Fatalf("a governor tripped on a zero-limits session: %v", err)
	}
	if res.Len() != source || sess.TuplesTransferred() != source {
		t.Errorf("rows = %d, transferred = %d, want %d each", res.Len(), sess.TuplesTransferred(), source)
	}
	if _, capped := sess.tupleBudget(); capped {
		t.Error("zero MaxTuples reports a capped transfer budget")
	}
	if sess.dispatcherFor("bigsrc") != nil {
		t.Error("zero MaxConcurrentPerSource installed a session admission pool")
	}
	for i := 0; i < 1000; i++ {
		if !sess.chargeRetry() {
			t.Fatalf("zero RetryBudget refused retry %d", i+1)
		}
	}
	if w := sess.Warnings(); w != nil {
		t.Errorf("complete answer carries warnings: %v", w)
	}

	// Identical probes within one session — here the same bind join issued
	// by two UNION ALL arms — reach the source once.
	const n, batch = 6, 3
	keys := keysOf(n)
	cat, ctr := buildBindCatalog(t, keys, targetFor(keys, 2), batch, false)
	ex2 := NewExecutor(cat)
	sess2 := ex2.NewSession(bg, Limits{})
	defer sess2.Close()
	both, err := ex2.ExecuteSession(sess2, sqlparse.MustParse(bindQ+" UNION ALL "+bindQ))
	if err != nil {
		t.Fatal(err)
	}
	if both.Len() != 2*n*2 {
		t.Errorf("answer has %d rows, want %d", both.Len(), 2*n*2)
	}
	if d := ctr.MaxDuplicates(); d != 1 {
		t.Errorf("an identical probe reached the source %d times in one session, want 1", d)
	}
	if got, want := ctr.Queries(), (n+batch-1)/batch; got != want {
		t.Errorf("target reached %d times, want %d", got, want)
	}
}
