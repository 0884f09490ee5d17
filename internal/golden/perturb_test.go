package golden

// The schedule-perturbation referee for mediated unions. A mediated union
// opens every branch at once and still emits in branch order, so its
// answer must not depend on which source answers first. Every mediation
// entry of the corpus and the benchmark's five query templates run with
// each source query delayed by a seeded random 0–3 ms, and must give — row for row, in order — the answer of an
// unperturbed serial run; the corpus entries must also match their
// recorded baselines, and the paper's Q1 over a generated federation the
// workload's own Go-arithmetic answer.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/coin"
	"repro/internal/fixture"
	"repro/internal/planner"
	"repro/internal/relalg"
	"repro/internal/store"
	"repro/internal/wrapper"
	"repro/internal/wrapper/wrappertest"
)

// benchTemplates are the benchmark's five query shapes (bench/spec.go),
// all posed in receiver context c2; %d is the literal K.
var benchTemplates = []string{
	"SELECT r1.cname, r1.revenue FROM r1 WHERE r1.revenue > %d",
	"SELECT rl.cname, rl.revenue FROM r1 rl, r2 WHERE rl.cname = r2.cname AND rl.revenue > r2.expenses AND rl.revenue > %d",
	"SELECT SUM(r1.revenue) AS total FROM r1 WHERE r1.revenue > %d",
	"SELECT r1.cname, r1.revenue FROM r1 WHERE r1.revenue > %d ORDER BY r1.revenue DESC",
	"SELECT r2.cname, r2.expenses FROM r2 WHERE r2.expenses > %d",
}

// perturbCase is one mediated query on a freshly built system.
type perturbCase struct {
	name, sql string
	system    func() *coin.System
	partial   bool
	base      *Baseline // the recorded golden answer, for corpus entries
}

// scaledSystem is the paper's federation over w's generated companies,
// with the rate table as a relational source.
func scaledSystem(w *fixture.ScaledWorkload) *coin.System {
	sys := coin.New(fixture.Model())
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(sys.AddContext(fixture.ContextC1()))
	must(sys.AddContext(fixture.ContextC2()))
	add := func(src string, rel *relalg.Relation, context, column string) {
		db := store.NewDB(src)
		tab := db.MustCreateTable(rel.Name, rel.Schema)
		for _, row := range rel.Tuples {
			tab.MustInsert(row...)
		}
		var elev map[string]*coin.Elevation
		if context != "" {
			elev = map[string]*coin.Elevation{rel.Name: {Relation: rel.Name, Context: context, Columns: []coin.ElevatedColumn{
				{Column: "cname", SemType: "companyName"},
				{Column: column, SemType: "companyFinancials"},
			}}}
		}
		must(sys.AddRelationalSource(db, elev))
	}
	add("source1", w.R1, "c1", "revenue")
	add("source2", w.R2, "c2", "expenses")
	add("currencyweb", w.R3, "", "")
	must(sys.AddAncillary("rate", "r3"))
	return sys
}

// perturbedExecutor is a fresh executor over sys's sources, each behind
// one Timeline that delays every source query by a random 0–3 ms drawn
// from seed. Its statistics already know the sources' 1.5 ms mean, so a
// mediated union over them opens its branches ahead.
func perturbedExecutor(sys *coin.System, seed int64) *planner.Executor {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	tl := &wrappertest.Timeline{Delay: func(string, wrapper.SourceQuery) time.Duration {
		mu.Lock()
		defer mu.Unlock()
		return time.Duration(rng.Int63n(int64(3*time.Millisecond) + 1))
	}}
	cat := planner.NewCatalog()
	seen := map[string]bool{}
	for _, rel := range sys.Catalog.Relations() {
		w, _ := sys.Catalog.WrapperFor(rel)
		if !seen[w.Source()] {
			seen[w.Source()] = true
			cat.MustAddSource(tl.Wrap(w))
		}
	}
	ex := planner.NewExecutor(cat)
	for src := range seen {
		ex.AdaptiveStats.ObserveLatency(src, 1500*time.Microsecond)
	}
	return ex
}

// runPerturbed mediates c on a fresh system and runs it — on the system's
// own executor for seed 0, else on a perturbedExecutor — returning the rows in the order they left the union
// and the warnings.
func runPerturbed(t *testing.T, c perturbCase, seed int64) (*relalg.Relation, []string) {
	t.Helper()
	sys := c.system()
	ex := sys.Executor()
	if seed != 0 {
		ex = perturbedExecutor(sys, seed)
	}
	med, err := sys.Mediate(c.sql, "c2")
	if err != nil {
		t.Fatal(err)
	}
	sess := ex.NewSession(context.Background(), planner.Limits{PartialResults: c.partial})
	defer sess.Close()
	it, err := ex.MediationStream(sess, med)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	rel, err := relalg.Collect(sess.Context(), it, "")
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	var warns []string
	for _, w := range sess.Warnings() {
		warns = append(warns, fmt.Sprintf("branch %d: source %s dropped", w.Branch, w.Source))
	}
	sort.Strings(warns)
	return rel, warns
}

func TestMediationSchedulePerturbation(t *testing.T) {
	corpus, err := LoadCorpus(queriesDir)
	if err != nil {
		t.Fatal(err)
	}
	var cases []perturbCase
	for _, q := range corpus {
		if q.Mode == "engine" {
			continue
		}
		base, err := ReadBaseline(goldenDir, q.Name)
		if err != nil {
			t.Fatal(err)
		}
		c := perturbCase{name: q.Name, sql: q.SQL, system: coin.Figure2System, base: base}
		if q.Mode == "mediate-partial" {
			c.system, c.partial = func() *coin.System { return coin.Figure2SystemWith(downFetcher{}) }, true
		}
		cases = append(cases, c)
	}
	scaled := fixture.NewScaledWorkload(300, 7)
	for i, tmpl := range benchTemplates {
		for _, k := range []int{0, 400000} {
			sql := fmt.Sprintf(tmpl, k)
			cases = append(cases,
				perturbCase{name: fmt.Sprintf("figure2/T%d/K=%d", i+1, k), sql: sql, system: coin.Figure2System},
				perturbCase{name: fmt.Sprintf("scaled/T%d/K=%d", i+1, k), sql: sql, system: func() *coin.System { return scaledSystem(scaled) }})
		}
	}

	// The workload's own answer to the paper's Q1 (T2 at K=0), by name.
	q1 := fmt.Sprintf(benchTemplates[1], 0)
	got, _ := runPerturbed(t, perturbCase{name: "scaled Q1", sql: q1, system: func() *coin.System { return scaledSystem(scaled) }}, 0)
	byName := func(r *relalg.Relation) string {
		res := &Result{}
		res.fillRows(r)
		return fmt.Sprint(res.Rows)
	}
	if byName(got) != byName(scaled.Expected) {
		t.Fatalf("scaled Q1 differs from the workload's answer")
	}

	for _, c := range cases {
		want, wantWarns := runPerturbed(t, c, 0)
		wantRows := &Result{Ordered: true}
		wantRows.fillRows(want)
		if c.base != nil {
			got := &Result{Ordered: c.base.Ordered}
			got.fillRows(want)
			for _, d := range append(compareResults(c.base, got), compareLines("warnings", c.base.Warnings, wantWarns)...) {
				t.Errorf("%s (unperturbed): %s", c.name, d)
			}
		}
		for seed := int64(1); seed <= 3; seed++ {
			rel, warns := runPerturbed(t, c, seed)
			res := &Result{Ordered: true}
			res.fillRows(rel)
			diffs := compareLines("row", wantRows.Rows, res.Rows)
			diffs = append(diffs, compareLines("warnings", wantWarns, warns)...)
			for _, d := range diffs {
				t.Errorf("%s, seed %d: %s", c.name, seed, d)
			}
		}
	}
}
