package golden

// The regression suite itself, plus the harness's self-tests: a harness
// that cannot catch a deliberately seeded regression is worse than none,
// so TestHarnessCatches* seed real plan and result changes (a cost
// constant flipped through the executor's PerQueryCostHook, a pushdown
// ablation, a tampered row) and assert the semantic diff reports them —
// while TestHarnessIgnoresRepricing proves a plan-preserving cost change
// stays invisible, which is the entire point of masking volatile digits.

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"repro/internal/planner"
	"repro/internal/relalg"
	"repro/internal/sqlparse"
	"repro/internal/store"
	"repro/internal/wrapper"
	"repro/internal/wrapper/filesrc"
)

var update = flag.Bool("update", false, "rewrite testdata/golden baselines from current behavior")

const (
	queriesDir = "testdata/queries"
	goldenDir  = "testdata/golden"
)

// TestGoldenCorpus runs every corpus entry against its baseline. With
// -update it regenerates the baselines instead (make golden-update).
func TestGoldenCorpus(t *testing.T) {
	corpus, err := LoadCorpus(queriesDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) < 20 {
		t.Fatalf("corpus has %d queries, want at least 20", len(corpus))
	}
	for _, q := range corpus {
		t.Run(q.Name, func(t *testing.T) {
			res, err := Run(t.Context(), q)
			if err != nil {
				t.Fatal(err)
			}
			if *update {
				if err := WriteBaseline(goldenDir, res); err != nil {
					t.Fatal(err)
				}
				return
			}
			base, err := ReadBaseline(goldenDir, q.Name)
			if err != nil {
				t.Fatalf("%v (run `make golden-update` to create baselines)", err)
			}
			for _, d := range Compare(base, res) {
				t.Error(d)
			}
		})
	}
}

// TestRegenerationDeterministic renders the whole corpus twice from
// scratch and byte-compares: `make golden-update` run twice must be a
// no-op.
func TestRegenerationDeterministic(t *testing.T) {
	corpus, err := LoadCorpus(queriesDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range corpus {
		first, err := Run(t.Context(), q)
		if err != nil {
			t.Fatal(err)
		}
		second, err := Run(t.Context(), q)
		if err != nil {
			t.Fatal(err)
		}
		if Render(first) != Render(second) {
			t.Errorf("%s: two fresh runs render differently:\n--- first\n%s\n--- second\n%s",
				q.Name, Render(first), Render(second))
		}
	}
}

// TestUnknownDirectiveRefused: a directive the corpus does not know fails
// the load instead of being ignored.
func TestUnknownDirectiveRefused(t *testing.T) {
	if _, err := parseQueryFile("x", "-- parallelism: 4\nSELECT 1"); err == nil || !strings.Contains(err.Error(), `unknown directive "parallelism"`) {
		t.Fatalf("err = %v, want an unknown-directive refusal", err)
	}
}

// TestBaselineRoundTrip pins the file format: parse(render(x)) == x.
func TestBaselineRoundTrip(t *testing.T) {
	res := &Result{
		Name:     "rt",
		SQL:      "SELECT a.x FROM a\nWHERE a.y = 1",
		Plan:     "step 1: a @ src est_rows=3 est_queries=1 est_cost=10\ntotal est_cost=10\n",
		Ordered:  true,
		Header:   "x:num",
		Rows:     []string{"1", "2"},
		Warnings: []string{"branch 1: source s dropped"},
	}
	back, err := ParseBaseline("rt", Render(res))
	if err != nil {
		t.Fatal(err)
	}
	if diffs := Compare(back, res); len(diffs) != 0 {
		t.Fatalf("round trip lost information: %v", diffs)
	}
	if back.SQL != res.SQL || back.Ordered != res.Ordered {
		t.Fatalf("round trip = %+v", back)
	}
}

// flipFixture builds the join-order scenario the cost-hook self-test
// flips: a file-backed feeder (no statistics, so probe counts are not
// clamped by distinct counts) and two binding-required relations on
// separate sources with different per-probe expansions. With uniform
// per-query prices the optimizer probes the narrow relation (tb, ~2 rows
// per probe) before the wide one (ta, ~4 rows per probe); pricing ta's
// source 10x dearer makes late placement fatal — its probe count would
// grow with the expanded intermediate result — so the DP flips the order.
func flipFixture(t *testing.T) *planner.Executor {
	t.Helper()
	cat := planner.NewCatalog()
	feeder, err := filesrc.New("archive", "testdata/files")
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddSource(feeder); err != nil {
		t.Fatal(err)
	}
	names := []string{"IBM", "NTT", "SONY", "DT", "BT", "ACME"}
	adb := store.NewDB("srcA")
	ta := adb.MustCreateTable("ta", relalg.NewSchema(strCol("cname"), numCol("x")))
	for i := 0; i < 40; i++ {
		ta.MustInsert(relalg.StrV(names[i%len(names)]), relalg.NumV(float64(i)))
	}
	wa := wrapper.NewRelational(adb)
	wa.Require = map[string][]string{"ta": {"cname"}}
	if err := cat.AddSource(wa); err != nil {
		t.Fatal(err)
	}
	bdb := store.NewDB("srcB")
	tb := bdb.MustCreateTable("tb", relalg.NewSchema(strCol("cname"), numCol("y")))
	for i := 0; i < 20; i++ {
		tb.MustInsert(relalg.StrV(names[i%len(names)]), relalg.NumV(float64(i)))
	}
	wb := wrapper.NewRelational(bdb)
	wb.Require = map[string][]string{"tb": {"cname"}}
	if err := cat.AddSource(wb); err != nil {
		t.Fatal(err)
	}
	ex := planner.NewExecutor(cat)
	// Per-probe accesses, so the probe count shows up in the per-query
	// cost term the hook rescales.
	ex.DisableBatching = true
	return ex
}

const flipQ = "SELECT earnings.cname, ta.x, tb.y FROM earnings, ta, tb WHERE ta.cname = earnings.cname AND tb.cname = earnings.cname"

func planText(t *testing.T, ex *planner.Executor, sql string) string {
	t.Helper()
	p, err := ex.PlanCtx(t.Context(), sqlparse.MustParse(sql).(*sqlparse.Select))
	if err != nil {
		t.Fatal(err)
	}
	return p.Explain()
}

// TestHarnessCatchesCostFlip is the required self-test: flipping a cost
// constant through the executor's PerQueryCostHook seeds a deliberate
// plan change (the bind-join order flips), and the semantic plan diff
// must fail with a readable step-level message.
func TestHarnessCatchesCostFlip(t *testing.T) {
	base := planText(t, flipFixture(t), flipQ)

	hooked := flipFixture(t)
	hooked.PerQueryCostHook = func(source string, perQuery float64) float64 {
		if source == "srcA" {
			return perQuery * 10
		}
		return perQuery
	}
	got := planText(t, hooked, flipQ)

	// The seeded change is real: the access order actually flipped.
	if idx := strings.Index(base, "tb @ srcB"); idx < 0 || idx > strings.Index(base, "ta @ srcA") {
		t.Fatalf("baseline should probe tb before ta:\n%s", base)
	}
	if idx := strings.Index(got, "ta @ srcA"); idx < 0 || idx > strings.Index(got, "tb @ srcB") {
		t.Fatalf("hooked plan should probe ta before tb:\n%s", got)
	}

	diffs := Compare(
		&Baseline{Plan: base, Header: "h"},
		&Result{Plan: got, Header: "h"},
	)
	if len(diffs) == 0 {
		t.Fatal("semantic diff missed a flipped join order")
	}
	joined := strings.Join(diffs, "\n")
	if !strings.Contains(joined, "plan line") || !strings.Contains(joined, "ta @ srcA") {
		t.Fatalf("diff should name the moved step:\n%s", joined)
	}
}

// TestHarnessIgnoresRepricing: a uniform cost scaling keeps every
// ordering decision, so only the volatile digits change — the semantic
// diff must stay quiet. This is the counterweight to the flip test: the
// harness fails on structure, not on pricing.
func TestHarnessIgnoresRepricing(t *testing.T) {
	q := Query{Name: "reprice", Mode: "engine", SQL: "SELECT accounts.cname, fx.usd FROM accounts, fx WHERE fx.cur = accounts.currency"}
	base, err := Run(t.Context(), q)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := RunWith(t.Context(), q, RunOptions{Mutate: func(fx *Fixture) {
		fx.Ex.PerQueryCostHook = func(_ string, perQuery float64) float64 { return perQuery * 1.5 }
	}})
	if err != nil {
		t.Fatal(err)
	}
	if base.Plan == scaled.Plan {
		t.Fatal("scaling should have changed the printed cost digits")
	}
	if diffs := Compare(base, scaled); len(diffs) != 0 {
		t.Fatalf("uniform repricing must not fail the semantic diff:\n%s", strings.Join(diffs, "\n"))
	}
}

// TestHarnessCatchesPushdownLoss: the DisablePushdown ablation moves a
// filter from push[] to local[], and the plan diff reports it.
func TestHarnessCatchesPushdownLoss(t *testing.T) {
	q := Query{Name: "push", Mode: "engine", SQL: "SELECT earnings.cname FROM earnings WHERE earnings.currency = 'JPY'"}
	base, err := Run(t.Context(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(base.Plan, "push[currency = JPY]") {
		t.Fatalf("baseline should push the filter:\n%s", base.Plan)
	}
	ablated, err := RunWith(t.Context(), q, RunOptions{Mutate: func(fx *Fixture) {
		fx.Ex.DisablePushdown = true
	}})
	if err != nil {
		t.Fatal(err)
	}
	diffs := Compare(base, ablated)
	if len(diffs) == 0 {
		t.Fatal("semantic diff missed a lost pushdown")
	}
	if joined := strings.Join(diffs, "\n"); !strings.Contains(joined, "push[") {
		t.Fatalf("diff should show the pushed filter disappearing:\n%s", joined)
	}
}

// TestHarnessCatchesResultChange: a tampered row fails the result diff
// with missing/new row messages.
func TestHarnessCatchesResultChange(t *testing.T) {
	q := Query{Name: "rows", Mode: "engine", SQL: "SELECT companies.cname, companies.country FROM companies"}
	base, err := Run(t.Context(), q)
	if err != nil {
		t.Fatal(err)
	}
	tampered, err := Run(t.Context(), q)
	if err != nil {
		t.Fatal(err)
	}
	tampered.Rows[0] = "'EVIL' | 'XX'"
	diffs := Compare(base, tampered)
	if len(diffs) != 2 {
		t.Fatalf("diffs = %v, want one missing and one new row", diffs)
	}
	joined := strings.Join(diffs, "\n")
	if !strings.Contains(joined, "missing from current") || !strings.Contains(joined, "new in current") {
		t.Fatalf("row diff unreadable:\n%s", joined)
	}
}

// TestPartialResultsFaultScripting exercises the REST backend's fault
// scripting through the harness fixture: with the markets service down
// hard, a query against it degrades... no — engine mode has no branch
// degradation; the query fails with a classified fault. The harness
// surfaces that as a run error rather than a baseline diff, which is the
// correct loud failure for a dead backend.
func TestPartialResultsFaultScripting(t *testing.T) {
	q := Query{Name: "down", Mode: "engine", SQL: "SELECT indices.iname FROM indices"}
	_, err := RunWith(t.Context(), q, RunOptions{Mutate: func(fx *Fixture) {
		fx.Rest.FailNext(100, 503, "")
	}})
	if err == nil {
		t.Fatal("query against a scripted-dead REST backend should fail")
	}
	if !strings.Contains(err.Error(), "503") {
		t.Fatalf("error should carry the HTTP failure: %v", err)
	}
}

// TestCorpusCoversAllBackends guards the corpus's reason to exist: the
// golden plans must keep exercising every backend kind.
func TestCorpusCoversAllBackends(t *testing.T) {
	if *update {
		t.Skip("baselines being rewritten")
	}
	corpus, err := LoadCorpus(queriesDir)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	modes := map[string]bool{}
	for _, q := range corpus {
		modes[q.Mode] = true
		base, err := ReadBaseline(goldenDir, q.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []string{"hq", "archive", "finance", "markets"} {
			if strings.Contains(base.Plan, "@ "+src) {
				seen[src] = true
			}
		}
	}
	for _, src := range []string{"hq", "archive", "finance", "markets"} {
		if !seen[src] {
			t.Errorf("no golden plan touches backend %s", src)
		}
	}
	for _, m := range []string{"engine", "mediate", "mediate-partial"} {
		if !modes[m] {
			t.Errorf("no corpus entry runs mode %s", m)
		}
	}
}

// TestBatchWidthPinned: the batched bind join against the SQL backend
// must show its planned IN-list width in the baseline — a silent change
// of batch width is a plan regression.
func TestBatchWidthPinned(t *testing.T) {
	if *update {
		t.Skip("baselines being rewritten")
	}
	base, err := ReadBaseline(goldenDir, "11_bind_join_sql_batched")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(base.Plan, "batch[4]") {
		t.Fatalf("baseline plan should pin the 4-wide IN-list batching:\n%s", base.Plan)
	}
	if !strings.Contains(base.Plan, "bind[cur<=accounts.currency]") {
		t.Fatalf("baseline plan should pin the bind join:\n%s", base.Plan)
	}
}

var _ = fmt.Sprintf // keep fmt imported for debug edits
