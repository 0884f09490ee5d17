package planner

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/relalg"
	"repro/internal/sqlparse"
	"repro/internal/store"
	"repro/internal/wrapper"
)

// bigCatalog wires a single relational source holding n sequential rows.
func bigCatalog(n int) *Catalog {
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
	cat := NewCatalog()
	cat.MustAddSource(wrapper.NewRelational(db))
	return cat
}

// TestLimitTransfersOnlyLimitTuples is the acceptance criterion of the
// streaming executor: SELECT ... LIMIT n over a large source stops
// pulling after n tuples — ExecStats reports O(n) transfer, not O(source).
func TestLimitTransfersOnlyLimitTuples(t *testing.T) {
	const source = 50000
	ex := NewExecutor(bigCatalog(source))
	res, err := execute(bg, ex, sqlparse.MustParse("SELECT nums.n FROM nums LIMIT 5"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 5 {
		t.Fatalf("result = %s", res)
	}
	st := ex.Stats()
	if st.TuplesTransferred != 5 {
		t.Errorf("TuplesTransferred = %d, want exactly 5 (source holds %d)", st.TuplesTransferred, source)
	}
	if st.SourceQueries != 1 || st.BranchesRun != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestLimitWithLocalFilterStaysSublinear: a filter the engine applies
// locally sits between source and LIMIT; the transfer must stop as soon
// as the limit fills, far below the source size.
func TestLimitWithLocalFilterStaysSublinear(t *testing.T) {
	const source = 50000
	ex := NewExecutor(bigCatalog(source))
	ex.DisablePushdown = true
	res, err := execute(bg, ex, sqlparse.MustParse(
		"SELECT nums.n FROM nums WHERE nums.grp = 'odd' LIMIT 4"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 {
		t.Fatalf("result = %s", res)
	}
	// Odd rows are every second tuple: filling LIMIT 4 needs ~8 pulls.
	if st := ex.Stats(); st.TuplesTransferred >= 100 {
		t.Errorf("TuplesTransferred = %d, want O(limit), not O(%d)", st.TuplesTransferred, source)
	}
}

// TestFullScanStillCountsEverything: without a LIMIT the stream drains,
// and the stats match the materialized executor's accounting.
func TestFullScanStillCountsEverything(t *testing.T) {
	ex := NewExecutor(bigCatalog(1000))
	if _, err := execute(bg, ex, sqlparse.MustParse("SELECT nums.n FROM nums")); err != nil {
		t.Fatal(err)
	}
	if st := ex.Stats(); st.TuplesTransferred != 1000 || st.SourceQueries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestMediationBranchesLazilySkipped: when an early exit above the
// mediated union is satisfied by the first branch, later branches never
// open — they issue no source queries and are not counted as run.
func TestMediationBranchesLazilySkipped(t *testing.T) {
	cat := bigCatalog(100)
	b1 := sqlparse.MustParse("SELECT nums.n FROM nums").(*sqlparse.Select)
	b2 := sqlparse.MustParse("SELECT nums.n FROM nums").(*sqlparse.Select)
	med := &core.Mediation{
		Branches: []*sqlparse.Select{b1, b2},
		UnionAll: true,
		Post:     &core.Post{Limit: 3},
	}
	ex := NewExecutor(cat)
	res, err := executeMediation(bg, ex, med)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("result = %s", res)
	}
	st := ex.Stats()
	if st.BranchesRun != 1 {
		t.Errorf("BranchesRun = %d, want 1 (second branch should never open)", st.BranchesRun)
	}
	if st.SourceQueries != 1 || st.TuplesTransferred != 3 {
		t.Errorf("stats = %+v", st)
	}
}

// TestBuildStreamHasNoSideEffects: compiling a plan contacts no source,
// and neither does opening it — a pipeline without breakers sends its
// scan only on the first pull.
func TestBuildStreamHasNoSideEffects(t *testing.T) {
	ex := NewExecutor(bigCatalog(100))
	plan, err := ex.PlanCtx(bg, sqlparse.MustParse("SELECT nums.n FROM nums").(*sqlparse.Select))
	if err != nil {
		t.Fatal(err)
	}
	sess := zeroSession(t, ex)
	it, err := ex.BuildStream(sess, plan)
	if err != nil {
		t.Fatal(err)
	}
	if st := ex.Stats(); st.SourceQueries != 0 || st.BranchesRun != 0 {
		t.Errorf("building the stream already ran queries: %+v", st)
	}
	if err := it.Open(sess.Context()); err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if st := ex.Stats(); st.SourceQueries != 0 || st.BranchesRun != 1 {
		t.Errorf("stats after open = %+v, want 0 source queries / 1 branch run", st)
	}
	if _, err := it.Next(1); err != nil {
		t.Fatal(err)
	}
	if st := ex.Stats(); st.SourceQueries != 1 {
		t.Errorf("stats after the first pull = %+v, want 1 source query", st)
	}
}

// TestMediationStreamBuildContactsNoSource: building a mediated union is
// free of source traffic for every branch, and once opened a post-union
// LIMIT met by branch 1 leaves the sources of branches 2 and 3 untouched.
func TestMediationStreamBuildContactsNoSource(t *testing.T) {
	f := newChaosFixture(t)
	med := &core.Mediation{Branches: f.med.Branches, UnionAll: true, Post: &core.Post{Limit: 2}}
	ex := NewExecutor(f.cat)
	sess := zeroSession(t, ex)
	it, err := ex.MediationStream(sess, med)
	if err != nil {
		t.Fatal(err)
	}
	queries := func() (n int) {
		for _, c := range f.counter {
			n += c.Queries()
		}
		return n
	}
	if st := ex.Stats(); queries() != 0 || st.SourceQueries != 0 || st.BranchesRun != 0 {
		t.Fatalf("building the stream already ran: %d source queries, stats %+v", queries(), st)
	}
	res, err := relalg.Collect(sess.Context(), it, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("result = %s, want 2 rows", res)
	}
	if a, b, c := f.counter["srcA"].Queries(), f.counter["srcB"].Queries(), f.counter["srcC"].Queries(); a != 1 || b != 0 || c != 0 {
		t.Errorf("source queries srcA/srcB/srcC = %d/%d/%d, want 1/0/0", a, b, c)
	}
	if st := ex.Stats(); st.BranchesRun != 1 {
		t.Errorf("BranchesRun = %d, want 1", st.BranchesRun)
	}
}

// TestMediationPlanningErrorFailsBuild: a branch that cannot be planned
// fails the whole mediation when the stream is built, before any source
// is contacted.
func TestMediationPlanningErrorFailsBuild(t *testing.T) {
	med, err := core.New(fixture.Registry()).MediateSQL(fixture.PaperQ1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	// Catalog missing r3 entirely: the conversion branches cannot plan.
	dbs := fixture.Databases()
	cat := NewCatalog()
	cat.MustAddSource(wrapper.NewRelational(dbs["source1"]))
	cat.MustAddSource(wrapper.NewRelational(dbs["source2"]))
	ex := NewExecutor(cat)
	if _, err := ex.MediationStream(zeroSession(t, ex), med); err == nil {
		t.Error("missing source not reported when building the mediation stream")
	}
	if st := ex.Stats(); st.SourceQueries != 0 {
		t.Errorf("failed build ran %d source queries", st.SourceQueries)
	}
}

// TestIdentityPostItems: the select list core gives a multi-branch ORDER
// BY (one bare reference per union column, in order) is recognised as the
// identity, so postStream adds no projection; anything that renames,
// reorders, drops or computes a column is not.
func TestIdentityPostItems(t *testing.T) {
	med, err := core.New(fixture.Registry()).MediateSQL(
		"SELECT r1.cname, r1.revenue FROM r1 WHERE r1.revenue > 5 ORDER BY r1.revenue DESC", "c2")
	if err != nil {
		t.Fatal(err)
	}
	cat, _ := paperCatalog()
	ex := NewExecutor(cat)
	branch, err := ex.selectStream(zeroSession(t, ex), med.Branches[0])
	if err != nil {
		t.Fatal(err)
	}
	in := branch.Schema()
	var items []relalg.ProjectItem
	for _, it := range med.Post.Items {
		items = append(items, relalg.ProjectItem{Name: it.Expr.(*sqlparse.ColRef).Column, Expr: it.Expr})
	}
	if len(med.Branches) < 2 || !identity(items, in) {
		t.Fatalf("core's post items %v over %v (%d branches) are not the identity", items, in.Names(), len(med.Branches))
	}
	ref := func(name, col string) relalg.ProjectItem {
		return relalg.ProjectItem{Name: name, Expr: sqlparse.Col("", col)}
	}
	for _, c := range [][]relalg.ProjectItem{
		{ref("revenue", "revenue"), ref("cname", "cname")},
		{ref("cname", "cname")},
		{ref("cname", "cname"), ref("total", "revenue")},
		{ref("cname", "cname"), {Name: "revenue", Expr: sqlparse.Col("r1", "revenue")}},
		{ref("cname", "cname"), {Name: "revenue", Expr: sqlparse.Num(1)}},
	} {
		if identity(c, in) {
			t.Errorf("%v over %v taken for the identity", c, in.Names())
		}
	}
}
