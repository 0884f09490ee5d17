package planner

// Tests for the session's shared hash-join build sides (access.go
// buildSharer, relalg.BuildSharer): the branches of a mediated union build
// each source relation once; anything that changes what the build holds
// keeps builds apart; a failed build is never memoised; laziness and
// early exit are untouched.

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/relalg"
	"repro/internal/sqlparse"
	"repro/internal/store"
	"repro/internal/wrapper"
	"repro/internal/wrapper/wrappertest"
)

// shareFixture is a Figure-2-shaped federation: r1(cname, revenue,
// currency) on src1 and r2(cname, alias, expenses) on src2 — r2b on src3
// holds the same rows — each behind a Flaky and a Counter, all three
// logging onto one Timeline.
type shareFixture struct {
	cat     *Catalog
	flaky   map[string]*wrappertest.Flaky
	counter map[string]*wrappertest.Counter
	tl      *wrappertest.Timeline
}

func newShareFixture(t *testing.T) *shareFixture {
	t.Helper()
	f := &shareFixture{cat: NewCatalog(), flaky: map[string]*wrappertest.Flaky{}, counter: map[string]*wrappertest.Counter{},
		tl: &wrappertest.Timeline{}}
	currencies := []string{"JPY", "USD", "EUR"}
	db1 := store.NewDB("src1")
	r1 := db1.MustCreateTable("r1", relalg.NewSchema(
		relalg.Column{Name: "cname", Type: relalg.KindString},
		relalg.Column{Name: "revenue", Type: relalg.KindNumber},
		relalg.Column{Name: "currency", Type: relalg.KindString}))
	r2schema := relalg.NewSchema(
		relalg.Column{Name: "cname", Type: relalg.KindString},
		relalg.Column{Name: "alias", Type: relalg.KindString},
		relalg.Column{Name: "expenses", Type: relalg.KindNumber})
	db2, db3 := store.NewDB("src2"), store.NewDB("src3")
	r2, r2b := db2.MustCreateTable("r2", r2schema), db3.MustCreateTable("r2b", r2schema)
	for i := 0; i < 12; i++ {
		name := relalg.StrV(fmt.Sprintf("co%02d", i))
		r1.MustInsert(name, relalg.NumV(float64(100+7*i)), relalg.StrV(currencies[i%3]))
		// Every third company appears twice in r2 (duplicate build keys).
		for d := 0; d <= (i+1)%3/2; d++ {
			r2.MustInsert(name, name, relalg.NumV(float64(110+5*i+d)))
			r2b.MustInsert(name, name, relalg.NumV(float64(110+5*i+d)))
		}
	}
	for _, db := range []*store.DB{db1, db2, db3} {
		fl := wrappertest.NewFlaky(wrapper.NewRelational(db))
		ctr := wrappertest.NewCounter(f.tl.Wrap(fl))
		f.cat.MustAddSource(ctr)
		f.flaky[db.Name], f.counter[db.Name] = fl, ctr
	}
	return f
}

// shareBranch is one conflict case of the mediated Q1: r1 restricted to a
// currency, joined to r2 on cname; extra is ANDed on.
func shareBranch(t *testing.T, currency, extra string) *sqlparse.Select {
	return mustSelect(t, "SELECT rl.cname, rl.revenue, r2.expenses FROM r1 rl, r2 WHERE rl.currency = '"+
		currency+"' AND rl.cname = r2.cname AND rl.revenue > r2.expenses"+extra)
}

// privateBuilds answers med branch by branch, each in a session of its
// own on a fresh federation — nothing to share — and concatenates: the
// reference a shared run must equal byte for byte, rows and order.
func privateBuilds(t *testing.T, med *core.Mediation, tune func(*Executor)) string {
	t.Helper()
	var all *relalg.Relation
	for _, b := range med.Branches {
		ex := NewExecutor(newShareFixture(t).cat)
		if tune != nil {
			tune(ex)
		}
		res, err := execute(bg, ex, b)
		if err != nil {
			t.Fatal(err)
		}
		if all == nil {
			all = relalg.NewRelation("", res.Schema)
		}
		all.Tuples = append(all.Tuples, res.Tuples...)
	}
	return all.String()
}

// requireSameAnswer compares a shared run with the privateBuilds
// reference.
func requireSameAnswer(t *testing.T, label string, got *relalg.Relation, want string) {
	t.Helper()
	if got.String() != want {
		t.Fatalf("%s: answer differs from private builds:\n%s\nwant:\n%s", label, got, want)
	}
}

// TestMediationBranchesShareOneBuild is the tentpole's acceptance test: a
// 3-branch mediation over the same r2 fetches it once — the two later
// branches are cache hits, charged nothing — and the answer is byte-equal,
// rows and order, to three private builds.
func TestMediationBranchesShareOneBuild(t *testing.T) {
	f := newShareFixture(t)
	med := &core.Mediation{UnionAll: true, Branches: []*sqlparse.Select{
		shareBranch(t, "JPY", ""), shareBranch(t, "USD", ""), shareBranch(t, "EUR", "")}}
	ex := NewExecutor(f.cat)
	sess := ex.NewSession(bg, Limits{})
	res, err := executeMediationSession(ex, sess, med)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("fixture yields an empty answer")
	}
	requireSameAnswer(t, "shared build", res, privateBuilds(t, med, nil))
	if q1, q2 := f.counter["src1"].Queries(), f.counter["src2"].Queries(); q1 != 3 || q2 != 1 {
		t.Errorf("source queries r1/r2 = %d/%d, want 3/1 (r2 built once, r1 streamed per branch)", q1, q2)
	}
	st := ex.Stats()
	if st.CacheHits != 2 || st.SourceQueries != 4 || st.BranchesRun != 3 {
		t.Errorf("stats = %+v, want 2 cache hits, 4 source queries, 3 branches run", st)
	}
	if got, want := sess.TuplesTransferred(), st.TuplesTransferred; got != want || got != 12+16 {
		t.Errorf("session charged %d tuples, executor counted %d, want 12 of r1 + 16 of r2 once", got, want)
	}
	sess.Close()
	if sess.probe.entries != nil || sess.probe.bytes != 0 {
		t.Errorf("Close left the session cache populated")
	}
}

// TestDistinctBuildsDoNotShare: two branches whose r2 steps differ in a
// pushed filter, an engine-local filter, a local predicate, the key
// column or the source each fetch and build their own side; identical
// steps (the control) share.
func TestDistinctBuildsDoNotShare(t *testing.T) {
	onAlias := mustSelect(t, "SELECT rl.cname, rl.revenue, r2.expenses FROM r1 rl, r2 WHERE rl.currency = 'JPY' AND rl.cname = r2.alias AND rl.revenue > r2.expenses")
	otherSource := mustSelect(t, "SELECT rl.cname, rl.revenue, r2b.expenses FROM r1 rl, r2b WHERE rl.currency = 'JPY' AND rl.cname = r2b.cname AND rl.revenue > r2b.expenses")
	noPushdown := func(ex *Executor) { ex.DisablePushdown = true }
	for _, c := range []struct {
		name    string
		a, b    *sqlparse.Select
		tune    func(*Executor)
		hits    int
		r2, r2b int // source queries expected at src2 / src3
	}{
		{name: "control", a: shareBranch(t, "JPY", ""), b: shareBranch(t, "JPY", ""), hits: 1, r2: 1},
		{name: "pushed filter", a: shareBranch(t, "JPY", " AND r2.expenses > 0"), b: shareBranch(t, "JPY", " AND r2.expenses > 1"), r2: 2},
		{name: "local filter", a: shareBranch(t, "JPY", " AND r2.expenses > 0"), b: shareBranch(t, "JPY", " AND r2.expenses > 1"), tune: noPushdown, r2: 2},
		{name: "local predicate", a: shareBranch(t, "JPY", " AND r2.expenses * 1 > 0"), b: shareBranch(t, "JPY", " AND r2.expenses * 1 > 1"), r2: 2},
		{name: "key column", a: shareBranch(t, "JPY", ""), b: onAlias, r2: 2},
		{name: "source", a: shareBranch(t, "JPY", ""), b: otherSource, r2: 1, r2b: 1},
	} {
		f := newShareFixture(t)
		med := &core.Mediation{UnionAll: true, Branches: []*sqlparse.Select{c.a, c.b}}
		ex := NewExecutor(f.cat)
		if c.tune != nil {
			c.tune(ex)
		}
		res, err := executeMediation(bg, ex, med)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		requireSameAnswer(t, c.name, res, privateBuilds(t, med, c.tune))
		if hits := ex.Stats().CacheHits; hits != c.hits {
			t.Errorf("%s: CacheHits = %d, want %d", c.name, hits, c.hits)
		}
		if q2, q3 := f.counter["src2"].Queries(), f.counter["src3"].Queries(); q2 != c.r2 || q3 != c.r2b {
			t.Errorf("%s: source queries r2/r2b = %d/%d, want %d/%d", c.name, q2, q3, c.r2, c.r2b)
		}
	}
}

// TestSharedBuildFaultNotMemoisedPartial: the first branch's build dies
// on a permanent source fault. Under PartialResults only that branch
// degrades; the failure is not memoised, so branch 2 fetches r2 again and
// succeeds, and branch 3 is served from branch 2's table. Fail-fast, the
// same fault fails the query, attributed to the source.
func TestSharedBuildFaultNotMemoisedPartial(t *testing.T) {
	med := &core.Mediation{UnionAll: true, Branches: []*sqlparse.Select{
		shareBranch(t, "JPY", ""), shareBranch(t, "USD", ""), shareBranch(t, "EUR", "")}}
	boom := wrapper.Permanent(errors.New("r2 unreachable"))

	f := newShareFixture(t)
	f.flaky["src2"].FailNext(1, boom)
	ex := NewExecutor(f.cat)
	res, warns, err := runPartial(t, ex, med)
	if err != nil {
		t.Fatal(err)
	}
	survivors := &core.Mediation{UnionAll: true, Branches: med.Branches[1:]}
	requireSameAnswer(t, "partial answer", res, privateBuilds(t, survivors, nil))
	if len(warns) != 1 || warns[0].Branch != 1 || warns[0].Source != "src2" {
		t.Errorf("warnings = %+v, want exactly branch 1 degraded by src2", warns)
	}
	if q := f.counter["src2"].Queries(); q != 2 {
		t.Errorf("r2 reached %d times, want 2 (the failed build, then branch 2's retry)", q)
	}
	if st := ex.Stats(); st.CacheHits != 1 || st.BranchesFailed != 1 {
		t.Errorf("stats = %+v, want 1 cache hit (branch 3) and 1 failed branch", st)
	}
	assertNoLeakedSlots(t, ex)

	f = newShareFixture(t)
	f.flaky["src2"].FailNext(1, boom)
	_, err = executeMediation(bg, NewExecutor(f.cat), med)
	var se *SourceError
	if !errors.As(err, &se) || se.Source != "src2" {
		t.Fatalf("fail-fast error = %v, want SourceError for src2", err)
	}
}

// TestSharedBuildKeepsEarlyExit: the memo is consulted at Open, so a
// post-union LIMIT met by branch 1 still leaves branches 2 and 3 unopened
// — no build, no probe, no cache traffic — and building the stream
// contacts no source.
func TestSharedBuildKeepsEarlyExit(t *testing.T) {
	f := newShareFixture(t)
	med := &core.Mediation{UnionAll: true, Post: &core.Post{Limit: 1}, Branches: []*sqlparse.Select{
		shareBranch(t, "JPY", ""), shareBranch(t, "USD", ""), shareBranch(t, "EUR", "")}}
	ex := NewExecutor(f.cat)
	sess := zeroSession(t, ex)
	it, err := ex.MediationStream(sess, med)
	if err != nil {
		t.Fatal(err)
	}
	if q := f.counter["src1"].Queries() + f.counter["src2"].Queries(); q != 0 {
		t.Fatalf("building the stream ran %d source queries", q)
	}
	res, err := relalg.Collect(sess.Context(), it, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("answer = %s, want 1 row", res)
	}
	if q1, q2 := f.counter["src1"].Queries(), f.counter["src2"].Queries(); q1 != 1 || q2 != 1 {
		t.Errorf("source queries r1/r2 = %d/%d, want 1/1", q1, q2)
	}
	if st := ex.Stats(); st.BranchesRun != 1 || st.CacheHits != 0 {
		t.Errorf("stats = %+v, want 1 branch run and no cache hit", st)
	}
}

// TestOverBudgetBuildIsNotKept: a build whose estimate does not fit the
// session's remaining cache budget serves the join that made it and is
// dropped, so the next branch builds again.
func TestOverBudgetBuildIsNotKept(t *testing.T) {
	f := newShareFixture(t)
	med := &core.Mediation{UnionAll: true, Branches: []*sqlparse.Select{shareBranch(t, "JPY", ""), shareBranch(t, "JPY", "")}}
	ex := NewExecutor(f.cat)
	sess := zeroSession(t, ex)
	sess.probe.bytes = DefaultProbeCacheBytes // the budget is already spent
	res, err := executeMediationSession(ex, sess, med)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAnswer(t, "over budget", res, privateBuilds(t, med, nil))
	if q, hits := f.counter["src2"].Queries(), ex.Stats().CacheHits; q != 2 || hits != 0 {
		t.Errorf("r2 reached %d times with %d cache hits, want 2 and 0", q, hits)
	}
	if len(sess.probe.entries) != 0 {
		t.Errorf("an over-budget build stayed in the session cache")
	}
}
