// Alloc-regression gate for the mediated execution path: pins the
// allocation budget of the paper-shaped E9 query so a later change to
// the batch pipeline cannot silently fall back to per-tuple allocation.
// The budget carries ~2x headroom over the measured value — it gates
// order-of-magnitude regressions, not single-alloc drift (the pre-batch
// engine spent ~40 allocations per source row on the same query).
package repro_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/planner"
	"repro/internal/relalg"
	"repro/internal/server"
	"repro/internal/sqlparse"
	"repro/internal/store"
	"repro/internal/wrapper"
)

func TestE9MediatedJoinAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	med, err := core.New(fixture.Registry()).MediateSQL(fixture.PaperQ1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	cat, w := scaledCatalog(1000, 42)
	want := w.Expected.Len()
	run := func() {
		res, err := executeMediation(planner.NewExecutor(cat), med)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != want {
			t.Fatalf("answers = %d, want %d", res.Len(), want)
		}
	}
	run() // warm caches outside the measured runs
	allocs := testing.AllocsPerRun(5, run)
	t.Logf("E9 mediated join (companies=1000): %.0f allocs/query", allocs)
	// Measured 891 with the select list folded into each branch's join
	// (909 before): ~2x headroom.
	const budget = 1782
	if allocs > budget {
		t.Errorf("mediated E9 query allocates %.0f/query, budget %d", allocs, budget)
	}
}

// TestMediateHitAllocBudget pins what a memoised shape is for: mediating
// the paper's Q1 when its shape has been solved (a hit) allocates a
// fraction of what solving it does (a miss), because the hit skips the
// compile and the abductive solve and only instantiates and emits.
func TestMediateHitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	stmt, err := sqlparse.Parse(fixture.PaperQ1)
	if err != nil {
		t.Fatal(err)
	}
	m := core.New(fixture.Registry())
	mediate := func() {
		med, err := m.Mediate(stmt, "c2")
		if err != nil {
			t.Fatal(err)
		}
		if len(med.Branches) != 3 {
			t.Fatalf("branches = %d", len(med.Branches))
		}
	}
	// A miss: the program is warm, the shape is not (AllocsPerRun calls
	// the function once before it counts, so the reset goes first).
	reset := func() {
		m.Invalidate()
		if err := m.Warm("c2"); err != nil {
			t.Fatal(err)
		}
	}
	miss := testing.AllocsPerRun(20, func() { reset(); mediate() }) - testing.AllocsPerRun(20, reset)
	hit := testing.AllocsPerRun(100, mediate)
	t.Logf("mediating PaperQ1: miss %.0f allocs, hit %.0f allocs (%.0f%%)", miss, hit, 100*hit/miss)
	const budget = 197 // measured 179; +10%
	if hit > budget {
		t.Errorf("a hit allocates %.0f, budget %d", hit, budget)
	}
	if hit > 0.4*miss {
		t.Errorf("a hit allocates %.0f, over 40%% of a miss's %.0f", hit, miss)
	}
}

// TestScaleMediatedJoinByteBudget is the byte-volume gate of the same
// query at the scale_stream workload's size (10,000 companies): the three
// branches share one build of
// r2, so r2 crosses the wrapper boundary once per query and the query's
// allocated bytes stay near one copy of each relation — losing the share
// (or re-inflating Value) roughly doubles them.
func TestScaleMediatedJoinByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	med, err := core.New(fixture.Registry()).MediateSQL(fixture.PaperQ1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	const n = 10000
	cat, w := scaledCatalog(n, 42)
	want := w.Expected.Len()
	run := func() planner.ExecStats {
		ex := planner.NewExecutor(cat)
		res, err := executeMediation(ex, med)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != want {
			t.Fatalf("answers = %d, want %d", res.Len(), want)
		}
		return ex.Stats()
	}
	// r1 is split across the three branches and r2 is built once; r3 is
	// four rows per access.
	if st := run(); st.CacheHits != 2 || st.TuplesTransferred < 2*n || st.TuplesTransferred > 2*n+16 {
		t.Errorf("stats = %+v, want 2 cache hits and r1 + r2 transferred once each (~%d tuples)", st, 2*n)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run()
		}
	})
	perQuery := res.AllocedBytesPerOp()
	t.Logf("mediated Q1 (companies=%d): %d B/query over %d queries", n, perQuery, res.N)
	// Measured 2.77 MB with each branch's select list folded into its
	// last join (3.71 MB while a projection re-copied the joined rows,
	// 4.22 MB with the two-way scan fan-out, 5.72 MB while the post-union
	// road copied and joins ran on the exchange, 7.5 MB with a Go map
	// under every keyed operator, 14.6 MB with three private builds and
	// the 48-byte Value): 1.6x headroom, so that losing the share, the
	// key table or the compact Value still trips the gate.
	const budget = 4_430_000
	if perQuery > budget {
		t.Errorf("mediated Q1 allocates %d B/query, budget %d", perQuery, budget)
	}
}

// preparedAnswer is a server.Service that answers every query with one
// relation built beforehand, under no mediation (and the schema handshake
// with nothing), so a request through it costs what the wire costs and no
// engine work.
type preparedAnswer struct {
	server.Service
	rel *relalg.Relation
}

func (preparedAnswer) Mediate(string, string) (*core.Mediation, error) { return nil, nil }
func (p preparedAnswer) ExecuteWarnCtx(context.Context, *core.Mediation, planner.Limits) (*relalg.Relation, []planner.Warning, error) {
	return p.rel, nil, nil
}
func (preparedAnswer) Contexts() []string  { return nil }
func (preparedAnswer) Relations() []string { return nil }

// TestWireRoundTripByteBudget is the byte-volume gate of the access layer
// on scale_post_2c's answer: 10,000 (name, amount) rows through /api/query
// and internal/client, over a loopback connection. The server encodes
// rel.Tuples into one buffer sized after the first row and the client
// builds each row with one ParseRow call; boxing the rows for
// encoding/json on the server, or decoding them by reflection on the
// client, each more than doubles the bytes.
func TestWireRoundTripByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	const n = 10000
	w := fixture.NewScaledWorkload(n, 42)
	ts := httptest.NewServer(server.New(preparedAnswer{rel: w.R2}))
	defer ts.Close()
	conn, err := client.Open(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := conn.QueryCtx(context.Background(), "SELECT r2.cname, r2.expenses FROM r2", "c2", client.Options{})
			if err != nil || len(got.Rows) != n {
				b.Fatalf("round trip: %v, %d rows", err, len(got.Rows))
			}
		}
	})
	perQuery := res.AllocedBytesPerOp()
	t.Logf("/api/query round trip (%d rows): %d B/query over %d queries", n, perQuery, res.N)
	// Measured 0.97 MB (4.2 MB at the commit before the row codec): 1.5x
	// headroom.
	const budget = 1500 << 10
	if perQuery > budget {
		t.Errorf("round trip allocates %d B/query, budget %d", perQuery, budget)
	}
}

// TestParallelJoinAllocatesAsSerial: the benchmark host sets
// DefaultParallelism to GOMAXPROCS, and keyed joins under it must
// allocate what they allocate with the field unset — serial hash joins
// whose output arenas are recycled between batches, the first join's by
// the second, which it feeds as the probe side, and the second's by the
// projection. 20,000 probe rows (big, first in FROM) against 1,000
// unique keys in dim and in tag, one match each.
func TestParallelJoinAllocatesAsSerial(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	const bigRows, keys = 20000, 1000
	db := store.NewDB("src")
	table := func(name, col string) *store.Table {
		return db.MustCreateTable(name, relalg.NewSchema(
			relalg.Column{Name: "k", Type: relalg.KindString},
			relalg.Column{Name: col, Type: relalg.KindNumber}))
	}
	big, dim, tag := table("big", "v"), table("dim", "w"), table("tag", "t")
	for i := 0; i < bigRows; i++ {
		big.MustInsert(relalg.StrV(fmt.Sprintf("k%03d", i*7%keys)), relalg.NumV(float64(i)))
	}
	for i := 0; i < keys; i++ {
		dim.MustInsert(relalg.StrV(fmt.Sprintf("k%03d", i)), relalg.NumV(float64(i)))
		tag.MustInsert(relalg.StrV(fmt.Sprintf("k%03d", i)), relalg.NumV(float64(-i)))
	}
	cat := planner.NewCatalog()
	cat.MustAddSource(wrapper.NewRelational(db))
	ex := planner.NewExecutor(cat)
	ex.AdaptiveStats = nil // every run plans from the same estimates
	stmt := sqlparse.MustParse("SELECT big.k, big.v, dim.w, tag.t FROM big, dim, tag WHERE big.k = dim.k AND big.k = tag.k")

	ex.DefaultParallelism = 4
	sess := ex.NewSession(context.Background(), planner.Limits{})
	defer sess.Close()
	plan, err := ex.PlanCtx(sess.Context(), stmt.(*sqlparse.Select))
	if err != nil {
		t.Fatal(err)
	}
	ex.ParallelizePlan(plan, sess)
	if text := plan.Explain(); plan.Steps[0].Relation != "big" || strings.Contains(text, "part[") {
		t.Fatalf("want big probing the other two, no scan fan-out:\n%s", text)
	}
	bytesAt := func(par int) int64 {
		ex.DefaultParallelism = par
		run := func() {
			sess := ex.NewSession(context.Background(), planner.Limits{})
			defer sess.Close()
			res, err := ex.ExecuteSession(sess, stmt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Len() != bigRows {
				t.Fatalf("parallelism %d: %d rows, want %d", par, res.Len(), bigRows)
			}
		}
		run()
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run()
			}
		}).AllocedBytesPerOp()
	}
	serial, parallel := bytesAt(0), bytesAt(4)
	ratio := float64(parallel) / float64(serial)
	t.Logf("keyed joins: %d B unset, %d B at DefaultParallelism 4 (ratio %.3f)", serial, parallel, ratio)
	if ratio > 1.10 {
		t.Errorf("at DefaultParallelism 4 the joins allocate %d B, %.2fx their %d B unset; want within 10%%", parallel, ratio, serial)
	}
}
