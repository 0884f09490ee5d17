package planner

// Tests for the overlapped mediated union (MediationStream, relalg's
// UnionAllIter.Ahead): over sources the learned statistics rate slow
// (slowExecutor), every branch opens at the union's Open, so a later
// branch's breakers reach their sources before branch 1 has drained, while
// rows still leave in branch order, an early-opened branch's failure
// surfaces only when the union reaches it, and cancelling or closing
// early leaves no slot held and no goroutine behind. They rest on the
// slot discipline of access.go: an opened but unpulled scan leaf or
// fan-out holds no slot and runs no goroutine. A LIMIT in Post keeps
// the branches lazy. Event order is read off the share fixture's
// wrappertest.Timeline.

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/relalg"
	"repro/internal/sqlparse"
	"repro/internal/wrapper"
	"repro/internal/wrapper/wrappertest"
)

// overlapMediation is a 3-branch mediated Q1 over the share fixture:
// branches 1 and 2 join r1 (JPY, USD) to r2 and share its build; branch 3
// joins the EUR rows to r2b on src3, a build of its own.
func overlapMediation(t *testing.T) *core.Mediation {
	return &core.Mediation{UnionAll: true, Branches: []*sqlparse.Select{
		shareBranch(t, "JPY", ""), shareBranch(t, "USD", ""),
		mustSelect(t, "SELECT rl.cname, rl.revenue, r2b.expenses FROM r1 rl, r2b WHERE rl.currency = 'EUR' "+
			"AND rl.cname = r2b.cname AND rl.revenue > r2b.expenses"),
	}}
}

// slowExecutor is an executor over cat whose learned statistics already
// rate every share-fixture source at aheadLatency, so a mediated union
// over them opens its branches ahead.
func slowExecutor(cat *Catalog) *Executor {
	ex := NewExecutor(cat)
	for _, src := range []string{"src1", "src2", "src3"} {
		ex.AdaptiveStats.ObserveLatency(src, aheadLatency)
	}
	return ex
}

// lazyRoad is med on the union's lazy road: a LIMIT no answer reaches
// keeps every branch unopened until the union gets to it.
func lazyRoad(med *core.Mediation) *core.Mediation {
	lazy := *med
	post := core.Post{Limit: math.MaxInt32}
	if med.Post != nil {
		post = *med.Post
	}
	if post.Limit < 0 {
		post.Limit = math.MaxInt32
	}
	lazy.Post = &post
	return &lazy
}

// branchOf names the overlap branch a source event belongs to: 3 for
// anything on src3 or filtered to EUR, 1 and 2 for r1's JPY and USD
// scans, 0 otherwise (the shared r2 build).
func branchOf(ev wrappertest.Event) int {
	if ev.Source == "src3" {
		return 3
	}
	for _, f := range ev.Query.Filters {
		switch f.Value {
		case relalg.StrV("JPY"):
			return 1
		case relalg.StrV("USD"):
			return 2
		case relalg.StrV("EUR"):
			return 3
		}
	}
	return 0
}

// firstEvent is the index of the first event of kind from branch, -1 if none.
func firstEvent(evs []wrappertest.Event, kind wrappertest.EventKind, branch int) int {
	return slices.IndexFunc(evs, func(ev wrappertest.Event) bool { return ev.Kind == kind && branchOf(ev) == branch })
}

// eventually polls cond for up to five seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// heldSlots sums the executor's dispatcher slots in use.
func heldSlots(ex *Executor) int {
	ex.disp.mu.Lock()
	defer ex.disp.mu.Unlock()
	n := 0
	for _, d := range ex.disp.m {
		n += len(d.slots)
	}
	return n
}

// drain pulls it to its end or first error, returning the rows before it.
func drain(t *testing.T, it relalg.Iterator) (*relalg.Relation, error) {
	t.Helper()
	rel := relalg.NewRelation("", it.Schema())
	for {
		b, err := it.Next(relalg.DefaultBatchSize)
		if err != nil || b.Empty() {
			return rel, err
		}
		rel.Tuples = append(rel.Tuples, b.Rows...)
	}
}

// TestOverlapLaterBranchContactsBeforeBranchOneDrains: once the union is
// open, branch 3's build reaches src3 without any pull — before branch 1's
// own scan has even begun, let alone drained.
func TestOverlapLaterBranchContactsBeforeBranchOneDrains(t *testing.T) {
	f := newShareFixture(t)
	ex := slowExecutor(f.cat)
	sess := zeroSession(t, ex)
	it, err := ex.MediationStream(sess, overlapMediation(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Open(sess.Context()); err != nil {
		t.Fatal(err)
	}
	eventually(t, "branch 3's source contact", func() bool { return firstEvent(f.tl.Events(), wrappertest.Contact, 3) >= 0 })
	if i := firstEvent(f.tl.Events(), wrappertest.Contact, 1); i >= 0 {
		t.Errorf("branch 1's scan contacted its source (event %d) before the first pull", i)
	}
	if _, err := drain(t, it); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	evs := f.tl.Events()
	b3, b1end := firstEvent(evs, wrappertest.Contact, 3), firstEvent(evs, wrappertest.End, 1)
	if b3 < 0 || b1end < 0 || b3 > b1end {
		t.Errorf("branch 3's first contact is event %d, branch 1 drained at event %d: want the contact first", b3, b1end)
	}
	if st := ex.Stats(); st.BranchesRun != 3 || st.CacheHits != 1 {
		t.Errorf("stats = %+v, want 3 branches run and branch 2's r2 build shared", st)
	}
	assertNoLeakedSlots(t, ex)
}

// TestOverlapRowsLeaveInBranchOrder: the overlapped answer equals, row for
// row and in order, the lazy road's and three private runs concatenated —
// serially and under parallelism 4.
func TestOverlapRowsLeaveInBranchOrder(t *testing.T) {
	med := overlapMediation(t)
	want := privateBuilds(t, med, nil)
	for _, par := range []int{1, 4} {
		for _, m := range []*core.Mediation{med, lazyRoad(med)} {
			ex := slowExecutor(newShareFixture(t).cat)
			res, err := executeMediationSession(ex, ex.NewSession(bg, Limits{MaxParallelism: par}), m)
			if err != nil {
				t.Fatal(err)
			}
			requireSameAnswer(t, "overlapped union", res, want)
		}
	}
}

// TestOverlapEarlyFailureSurfacesInBranchOrder: branch 3's build fails
// during its early Open. Fail-fast, branches 1 and 2 deliver every row
// before the error surfaces; under PartialResults only branch 3 degrades.
func TestOverlapEarlyFailureSurfacesInBranchOrder(t *testing.T) {
	med := overlapMediation(t)
	first2 := privateBuilds(t, &core.Mediation{UnionAll: true, Branches: med.Branches[:2]}, nil)
	boom := wrapper.Permanent(errors.New("src3 unreachable"))

	f := newShareFixture(t)
	f.flaky["src3"].FailAlways(boom)
	ex := slowExecutor(f.cat)
	sess := zeroSession(t, ex)
	it, err := ex.MediationStream(sess, med)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Open(sess.Context()); err != nil {
		t.Fatalf("the union's Open reported branch 3's failure: %v", err)
	}
	eventually(t, "branch 3's failed source contact", func() bool { return firstEvent(f.tl.Events(), wrappertest.Contact, 3) >= 0 })
	got, err := drain(t, it)
	it.Close()
	var se *SourceError
	if !errors.As(err, &se) || se.Source != "src3" {
		t.Fatalf("error = %v, want SourceError for src3", err)
	}
	requireSameAnswer(t, "rows before the failure", got, first2)
	assertNoLeakedSlots(t, ex)

	f = newShareFixture(t)
	f.flaky["src3"].FailAlways(boom)
	ex = slowExecutor(f.cat)
	res, warns, err := runPartial(t, ex, med)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAnswer(t, "partial answer", res, first2)
	if len(warns) != 1 || warns[0].Branch != 3 || warns[0].Source != "src3" {
		t.Errorf("warnings = %+v, want exactly branch 3 degraded by src3", warns)
	}
	if st := ex.Stats(); st.BranchesFailed != 1 {
		t.Errorf("BranchesFailed = %d, want 1", st.BranchesFailed)
	}
	assertNoLeakedSlots(t, ex)
}

// TestOverlapSharedBuildFaultFellsOneBranch: the three branches of a
// shared-r2 mediation open together, so two of them wait on the third's
// r2 flight — and that flight fails. The failure is the owner's alone:
// each waiter fetches r2 again, as a later request would, so under
// PartialResults exactly one branch degrades, whichever owned the flight.
func TestOverlapSharedBuildFaultFellsOneBranch(t *testing.T) {
	med := &core.Mediation{UnionAll: true, Branches: []*sqlparse.Select{
		shareBranch(t, "JPY", ""), shareBranch(t, "USD", ""), shareBranch(t, "EUR", "")}}
	f := newShareFixture(t)
	f.flaky["src2"].FailNext(1, wrapper.Permanent(errors.New("r2 unreachable")))
	f.tl.Delay = func(source string, _ wrapper.SourceQuery) time.Duration {
		if source == "src2" {
			return 20 * time.Millisecond // long enough for every branch to join the flight
		}
		return 0
	}
	ex := slowExecutor(f.cat)
	_, warns, err := runPartial(t, ex, med)
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 1 || warns[0].Source != "src2" {
		t.Errorf("warnings = %+v, want exactly one branch degraded by src2", warns)
	}
	if q := f.counter["src2"].Queries(); q != 2 {
		t.Errorf("r2 reached %d times, want 2 (the failed flight, then one waiter's retry)", q)
	}
	assertNoLeakedSlots(t, ex)
}

// TestOverlapCancelAndEarlyCloseReleaseEverything: closing the union
// before its first pull, or cancelling while branch 3's early Open waits
// on its source, leaves every dispatcher slot free and no goroutine of
// the query running.
func TestOverlapCancelAndEarlyCloseReleaseEverything(t *testing.T) {
	base := runtime.NumGoroutine()
	settled := func() bool { return runtime.NumGoroutine() <= base }
	for _, cancelFirst := range []bool{false, true} {
		f := newShareFixture(t)
		// Branch 3's build hangs at its source until cancelled.
		f.tl.Delay = func(source string, _ wrapper.SourceQuery) time.Duration {
			if source == "src3" {
				return time.Hour
			}
			return 0
		}
		ex := slowExecutor(f.cat)
		ex.DefaultParallelism = 4
		ctx, cancel := context.WithCancel(bg)
		sess := ex.NewSession(ctx, Limits{})
		it, err := ex.MediationStream(sess, overlapMediation(t))
		if err != nil {
			t.Fatal(err)
		}
		if err := it.Open(sess.Context()); err != nil {
			t.Fatal(err)
		}
		eventually(t, "branch 3's source contact", func() bool { return firstEvent(f.tl.Events(), wrappertest.Contact, 3) >= 0 })
		if cancelFirst {
			cancel()
			if _, err := drain(t, it); !errors.Is(err, context.Canceled) {
				t.Errorf("pull after cancel: %v, want context.Canceled", err)
			}
		}
		done := make(chan error, 1)
		go func() { done <- it.Close() }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Close blocked on an early-opened branch")
		}
		sess.Close()
		cancel()
		assertNoLeakedSlots(t, ex)
		eventually(t, "goroutines back at baseline", settled)
	}
}

// TestOverlapNeedsSlowSources: over sources with no learned latency the
// union opens only branch 1 at its Open, and branch 3 waits for the union
// to reach it.
func TestOverlapNeedsSlowSources(t *testing.T) {
	f := newShareFixture(t)
	ex := NewExecutor(f.cat)
	sess := zeroSession(t, ex)
	it, err := ex.MediationStream(sess, overlapMediation(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Open(sess.Context()); err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if i := firstEvent(f.tl.Events(), wrappertest.Contact, 3); i >= 0 || ex.Stats().BranchesRun != 1 {
		t.Errorf("branch 3 reached its source at event %d, %d branches opened; want none before the union reaches it, 1", i, ex.Stats().BranchesRun)
	}
}

// TestOverlapLimitKeepsLaterBranchesLazy: with a LIMIT in Post that branch
// 1 satisfies, branches 2 and 3 never open and never reach a source, slow
// as the sources are.
func TestOverlapLimitKeepsLaterBranchesLazy(t *testing.T) {
	f := newShareFixture(t)
	med := overlapMediation(t)
	med.Post = &core.Post{Limit: 1}
	ex := slowExecutor(f.cat)
	res, err := executeMediation(bg, ex, med)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("answer = %s, want 1 row", res)
	}
	for _, b := range []int{2, 3} {
		if i := firstEvent(f.tl.Events(), wrappertest.Contact, b); i >= 0 {
			t.Errorf("branch %d reached its source (event %d) under a satisfied LIMIT", b, i)
		}
	}
	if st := ex.Stats(); st.BranchesRun != 1 {
		t.Errorf("BranchesRun = %d, want 1", st.BranchesRun)
	}
}

// TestOverlapOpenedLeafHoldsNoSlot: an opened but unpulled scan leaf —
// serial or fanned out — holds no dispatcher slot and has contacted no
// source, and an opened join leaves no goroutine behind (its build, big,
// drained at Open and freed its slots; its probe leaf, dim, waits); the
// first pull admits the scan (one slot, or all of the fan-out's).
func TestOverlapOpenedLeafHoldsNoSlot(t *testing.T) {
	cat, bigCtr, dimCtr := buildParCatalog(t, parCatalogOpts{bigRows: 4000, dimRows: 900, seed: 3})
	for _, c := range []struct {
		sql   string
		par   int
		leaf  *wrappertest.Counter // the pulled scan's source
		slots int                  // held after the first pull
		join  bool
	}{
		{"SELECT big.k, big.v FROM big", 1, bigCtr, 1, false},
		{"SELECT big.k, big.v FROM big", 4, bigCtr, 4, false},
		{parJoinQ, 4, dimCtr, 1, true},
	} {
		c.leaf.Reset()
		ex := NewExecutor(cat)
		ex.DefaultParallelism = c.par
		sess := zeroSession(t, ex)
		plan, err := ex.PlanCtx(sess.Context(), sqlparse.MustParse(c.sql).(*sqlparse.Select))
		if err != nil {
			t.Fatal(err)
		}
		ex.ParallelizePlan(plan, sess)
		it, err := ex.BuildStream(sess, plan)
		if err != nil {
			t.Fatal(err)
		}
		base := runtime.NumGoroutine()
		if err := it.Open(sess.Context()); err != nil {
			t.Fatal(err)
		}
		if n, q := heldSlots(ex), c.leaf.Queries(); n != 0 || q != 0 {
			t.Errorf("%s at parallelism %d: opened, unpulled: %d slots held, %d queries to the scan's source; want 0, 0", c.sql, c.par, n, q)
		}
		if c.join {
			// The build's part scans may still be exiting.
			eventually(t, "no goroutine behind an unpulled join", func() bool { return runtime.NumGoroutine() <= base })
		}
		if _, err := it.Next(1); err != nil {
			t.Fatal(err)
		}
		if n := heldSlots(ex); n != c.slots {
			t.Errorf("%s at parallelism %d: %d slots held after the first pull, want %d", c.sql, c.par, n, c.slots)
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		assertNoLeakedSlots(t, ex)
	}
}
