package planner

// Tests for intra-query parallelism: the parallelize pass's annotations
// (and its parallelism=1 byte-identical guarantee), the renegotiated
// admission invariant under partitioned scan fan-outs (a K-part fan-out
// holds exactly K slots, never more than the pools), randomized
// equivalence of parallel and serial execution (content AND order, NULL
// keys and skewed partitions included), mid-stream fault recovery while
// a parallel scan is draining, and the session governors' atomicity when
// eight pipelines charge one session concurrently (run under -race).

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/relalg"
	"repro/internal/sqlparse"
	"repro/internal/store"
	"repro/internal/wrapper"
	"repro/internal/wrapper/wrappertest"
)

// parJoinQ joins a large partitionable fact table against a smaller
// build side on k — the shape the exchange join and scan fan-out target.
const parJoinQ = "SELECT big.k, big.v, dim.w FROM dim, big WHERE big.k = dim.k"

// parCatalogOpts shapes the synthetic two-source workload.
type parCatalogOpts struct {
	bigRows  int
	dimRows  int
	seed     int64
	nullKeys bool // sprinkle NULL join keys on both sides
	skew     bool // concentrate most keys in one hash partition
}

// buildParCatalog wires big(k,v) and dim(k,w) on two relational sources,
// both behind Counters so tests can observe queries and in-flight peaks.
func buildParCatalog(t *testing.T, o parCatalogOpts) (*Catalog, *wrappertest.Counter, *wrappertest.Counter) {
	t.Helper()
	rng := rand.New(rand.NewSource(o.seed))
	keyFor := func(skewed bool) relalg.Value {
		if o.nullKeys && rng.Intn(20) == 0 {
			return relalg.Null
		}
		n := rng.Intn(200)
		if skewed && rng.Intn(4) != 0 {
			n = 7 // three quarters of the rows share one key (one hash partition)
		}
		return relalg.StrV(fmt.Sprintf("k%03d", n))
	}
	bdb := store.NewDB("bigsrc")
	btab := bdb.MustCreateTable("big", relalg.NewSchema(
		relalg.Column{Name: "k", Type: relalg.KindString},
		relalg.Column{Name: "v", Type: relalg.KindNumber}))
	for i := 0; i < o.bigRows; i++ {
		// Skew hits the big side only: one overloaded worker partition,
		// without exploding the join's output size.
		btab.MustInsert(keyFor(o.skew), relalg.NumV(float64(i)))
	}
	ddb := store.NewDB("dimsrc")
	dtab := ddb.MustCreateTable("dim", relalg.NewSchema(
		relalg.Column{Name: "k", Type: relalg.KindString},
		relalg.Column{Name: "w", Type: relalg.KindNumber}))
	for i := 0; i < o.dimRows; i++ {
		dtab.MustInsert(keyFor(false), relalg.NumV(float64(1000+i)))
	}
	bigCtr := wrappertest.NewCounter(wrapper.NewRelational(bdb))
	dimCtr := wrappertest.NewCounter(wrapper.NewRelational(ddb))
	cat := NewCatalog()
	cat.MustAddSource(bigCtr)
	cat.MustAddSource(dimCtr)
	return cat, bigCtr, dimCtr
}

// TestParallelizePassAnnotations: with parallelism available, the pass
// fans the large independent scan out and puts the keyed join under the
// exchange; the serial cost estimates stay untouched and the pass is
// idempotent.
func TestParallelizePassAnnotations(t *testing.T) {
	cat, _, _ := buildParCatalog(t, parCatalogOpts{bigRows: 4000, dimRows: 900, seed: 1})
	ex := NewExecutor(cat)
	ex.DefaultParallelism = 4
	plan, err := ex.PlanCtx(bg, sqlparse.MustParse(parJoinQ).(*sqlparse.Select))
	if err != nil {
		t.Fatal(err)
	}
	serialExplain := plan.Explain()
	sess := zeroSession(t, ex)
	ex.ParallelizePlan(plan, sess)
	if plan.Parallelism != 4 {
		t.Errorf("plan.Parallelism = %d, want 4", plan.Parallelism)
	}
	var fanned, exchanged bool
	for _, step := range plan.Steps {
		if step.Relation == "big" && step.ScanParts > 1 {
			fanned = true
			// The fan-out must fit the source's admission pool.
			if step.ScanParts > DefaultMaxConcurrentPerSource {
				t.Errorf("ScanParts = %d exceeds the default pool %d", step.ScanParts, DefaultMaxConcurrentPerSource)
			}
		}
		if len(step.JoinKeys) > 0 && step.Workers > 1 {
			exchanged = true
		}
	}
	if !fanned {
		t.Errorf("no scan fan-out annotated:\n%s", plan.Explain())
	}
	if !exchanged {
		t.Errorf("no exchange join annotated:\n%s", plan.Explain())
	}
	first := plan.Explain()
	ex.ParallelizePlan(plan, sess) // idempotent: same annotations, same estimates
	if second := plan.Explain(); second != first {
		t.Errorf("parallelize pass not idempotent:\n%s\nvs\n%s", first, second)
	}
	if !strings.Contains(first, "exchange[") || !strings.Contains(first, "part[") {
		t.Errorf("EXPLAIN misses exchange/part annotations:\n%s", first)
	}
	// Re-annotating at parallelism 1 restores the serial rendering exactly.
	ex.DefaultParallelism = 1
	ex.ParallelizePlan(plan, sess)
	if got := plan.Explain(); got != serialExplain {
		t.Errorf("parallelism=1 EXPLAIN differs from serial plan:\n%s\nvs\n%s", got, serialExplain)
	}
}

// TestParallelismOnePlansByteIdentical pins the compatibility guarantee:
// a parallel-capable executor at effective parallelism 1 (via the session
// knob) renders plans byte-identical to an executor that never heard of
// parallelism.
func TestParallelismOnePlansByteIdentical(t *testing.T) {
	cat, _, _ := buildParCatalog(t, parCatalogOpts{bigRows: 4000, dimRows: 900, seed: 2})
	sel := sqlparse.MustParse(parJoinQ).(*sqlparse.Select)

	serial := NewExecutor(cat)
	base, err := serial.PlanCtx(bg, sel)
	if err != nil {
		t.Fatal(err)
	}

	par := NewExecutor(cat)
	par.DefaultParallelism = 8
	plan, err := par.PlanCtx(bg, sel)
	if err != nil {
		t.Fatal(err)
	}
	sess := par.NewSession(context.Background(), Limits{MaxParallelism: 1})
	defer sess.Close()
	par.ParallelizePlan(plan, sess)
	if plan.Explain() != base.Explain() {
		t.Errorf("session MaxParallelism=1 plan differs from the serial executor's:\n%s\nvs\n%s",
			plan.Explain(), base.Explain())
	}
}

// runPar executes sql on cat under the given parallelism and returns the
// rendered answer (String fixes both content and order).
func runPar(t *testing.T, cat *Catalog, ex *Executor, sql string, parallelism int) string {
	t.Helper()
	sess := ex.NewSession(context.Background(), Limits{MaxParallelism: parallelism})
	defer sess.Close()
	res, err := ex.ExecuteSession(sess, sqlparse.MustParse(sql))
	if err != nil {
		t.Fatalf("parallelism %d: %v", parallelism, err)
	}
	return res.String()
}

// TestParallelEquivalenceRandomized is the acceptance equivalence sweep:
// across seeds — NULL join keys and heavily skewed partitions included —
// parallel execution returns byte-for-byte the serial answer: same
// multiset AND same order, ORDER BY queries included.
func TestParallelEquivalenceRandomized(t *testing.T) {
	queries := []string{
		parJoinQ,
		"SELECT big.k, big.v, dim.w FROM dim, big WHERE big.k = dim.k ORDER BY big.v DESC",
		"SELECT big.k, COUNT(*), SUM(big.v) FROM big, dim WHERE big.k = dim.k GROUP BY big.k ORDER BY big.k",
		"SELECT big.k FROM big WHERE big.v < 500 ORDER BY big.k",
	}
	for seed := int64(1); seed <= 6; seed++ {
		o := parCatalogOpts{bigRows: 3000, dimRows: 800, seed: seed,
			nullKeys: seed%2 == 0, skew: seed%3 == 0}
		cat, _, _ := buildParCatalog(t, o)
		ex := NewExecutor(cat)
		for qi, q := range queries {
			serial := runPar(t, cat, ex, q, 1)
			for _, par := range []int{2, 4, 8} {
				if got := runPar(t, cat, ex, q, par); got != serial {
					t.Errorf("seed %d query %d parallelism %d: answer differs from serial\n--- serial ---\n%.400s\n--- parallel ---\n%.400s",
						seed, qi, par, serial, got)
				}
			}
		}
	}
}

// TestParallelScanAdmissionInvariant pins the renegotiated invariant at
// the source: a K-part fan-out drives the per-relation in-flight peak to
// exactly K — all K slots belong to the one active scan step — and the
// session's MaxConcurrentPerSource clamps K before any slot is taken.
func TestParallelScanAdmissionInvariant(t *testing.T) {
	cat, bigCtr, _ := buildParCatalog(t, parCatalogOpts{bigRows: 4000, dimRows: 900, seed: 3})
	ex := NewExecutor(cat)
	ex.DefaultParallelism = 8

	serial := runPar(t, cat, ex, parJoinQ, 1)
	bigCtr.Reset()
	if got := runPar(t, cat, ex, parJoinQ, 0); got != serial {
		t.Fatalf("parallel answer differs from serial")
	}
	// Parallelism 8 clamps to the default pool of 4: the scan issues one
	// query per part and the in-flight peak never exceeds the pool. (The
	// deterministic peak == parts proof is TestParallelScanFanOutConcurrency,
	// which freezes the streams; unfrozen in-memory parts can exhaust
	// before every window overlaps.)
	if got := bigCtr.MaxInflightFor("big"); got > DefaultMaxConcurrentPerSource {
		t.Errorf("big scan max in-flight = %d exceeds the pool %d", got, DefaultMaxConcurrentPerSource)
	}
	if got := bigCtr.Queries(); got != DefaultMaxConcurrentPerSource {
		t.Errorf("big scan issued %d queries, want one per part = %d", got, DefaultMaxConcurrentPerSource)
	}

	// A session cap below the pool clamps the reservation up front.
	bigCtr.Reset()
	sess := ex.NewSession(context.Background(), Limits{MaxConcurrentPerSource: 2})
	res, err := ex.ExecuteSession(sess, sqlparse.MustParse(parJoinQ))
	sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != serial {
		t.Errorf("capped parallel answer differs from serial")
	}
	if got := bigCtr.MaxInflightFor("big"); got > 2 {
		t.Errorf("big scan max in-flight = %d under MaxConcurrentPerSource=2", got)
	}
}

// TestParallelScanFanOutConcurrency freezes all partitioned streams of a
// fan-out mid-transfer behind a Gate and pins the renegotiated admission
// invariant deterministically: with every stream provably blocked at its
// first tuple, the per-relation in-flight count is exactly the fan-out
// width — all K reserved slots in use at once — and after a concurrent
// release the reassembled answer still equals the serial scan.
func TestParallelScanFanOutConcurrency(t *testing.T) {
	const rows = 4000
	gdb := store.NewDB("bigsrc")
	gtab := gdb.MustCreateTable("big", relalg.NewSchema(
		relalg.Column{Name: "k", Type: relalg.KindString},
		relalg.Column{Name: "v", Type: relalg.KindNumber}))
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < rows; i++ {
		gtab.MustInsert(relalg.StrV(fmt.Sprintf("k%03d", rng.Intn(200))), relalg.NumV(float64(i)))
	}
	serialCat := NewCatalog()
	serialCat.MustAddSource(wrapper.NewRelational(gdb))
	serial := runPar(t, serialCat, NewExecutor(serialCat), "SELECT big.k, big.v FROM big", 1)

	gate := wrappertest.NewGate(wrapper.NewRelational(gdb))
	ctr := wrappertest.NewCounter(gate)
	gcat := NewCatalog()
	gcat.MustAddSource(ctr)
	gex := NewExecutor(gcat)
	gex.DefaultParallelism = 4

	type answer struct {
		s   string
		err error
	}
	done := make(chan answer, 1)
	go func() {
		sess := gex.NewSession(context.Background(), Limits{})
		defer sess.Close()
		res, err := gex.ExecuteSession(sess, sqlparse.MustParse("SELECT big.k, big.v FROM big"))
		if err != nil {
			done <- answer{err: err}
			return
		}
		done <- answer{s: res.String()}
	}()
	// Drain one Emitted signal per part WITHOUT proceeding: a stream
	// signals Emitted once and then blocks awaiting Proceed, so four
	// signals prove four distinct streams are concurrently frozen
	// mid-transfer.
	for i := 0; i < 4; i++ {
		<-gate.Emitted
	}
	if got := ctr.MaxInflightFor("big"); got != 4 {
		t.Errorf("frozen fan-out has %d streams in flight, want all 4 reserved slots", got)
	}
	// Release every stream concurrently.
	gate.Open()
	got := <-done
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.s != serial {
		t.Errorf("gated parallel scan answer differs from serial")
	}
	if q := ctr.Queries(); q != 4 {
		t.Errorf("fan-out issued %d queries, want one per part = 4", q)
	}
}

// TestParallelScanMidStreamFaultRecovers: a partitioned stream dies after
// delivering tuples while its sibling parts are still draining; the
// retry machinery re-opens that part's query on the slot the fan-out
// already holds, replays are suppressed, and the answer is exactly the
// fault-free one.
func TestParallelScanMidStreamFaultRecovers(t *testing.T) {
	o := parCatalogOpts{bigRows: 4000, dimRows: 900, seed: 5}
	cat, _, _ := buildParCatalog(t, o)
	ex := NewExecutor(cat)
	clean := runPar(t, cat, ex, "SELECT big.k, big.v FROM big", 1)

	// Same data, with the source faulted mid-stream under a Flaky.
	fdb := store.NewDB("bigsrc")
	ftab := fdb.MustCreateTable("big", relalg.NewSchema(
		relalg.Column{Name: "k", Type: relalg.KindString},
		relalg.Column{Name: "v", Type: relalg.KindNumber}))
	reseed := rand.New(rand.NewSource(o.seed))
	for i := 0; i < o.bigRows; i++ {
		ftab.MustInsert(relalg.StrV(fmt.Sprintf("k%03d", reseed.Intn(200))), relalg.NumV(float64(i)))
	}
	flaky := wrappertest.NewFlaky(wrapper.NewRelational(fdb))
	// The second part query to arrive delivers 5 tuples and dies; every
	// other query (the other parts, and the recovery re-open) is clean.
	flaky.FailNext(0, nil)
	flaky.FailAtTuple(5, wrapper.Transient(errors.New("mid-stream fault")))
	ctr := wrappertest.NewCounter(flaky)
	fcat := NewCatalog()
	fcat.MustAddSource(ctr)
	fex := NewExecutor(fcat)
	fex.DefaultParallelism = 4
	fex.Retry = RetryPolicy{MaxAttempts: 3, BaseBackoff: 1}

	sess := fex.NewSession(context.Background(), Limits{})
	res, err := fex.ExecuteSession(sess, sqlparse.MustParse("SELECT big.k, big.v FROM big"))
	sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != clean {
		t.Errorf("recovered parallel scan answer differs from fault-free run")
	}
	// 4 part queries + 1 mid-stream recovery re-open.
	if got := ctr.Queries(); got != 5 {
		t.Errorf("faulted fan-out issued %d queries, want 4 parts + 1 recovery = 5", got)
	}
	// The recovery reuses the held slot: the in-flight peak never exceeds
	// the fan-out width.
	if got := ctr.MaxInflightFor("big"); got > 4 {
		t.Errorf("recovery exceeded the reservation: max in-flight %d", got)
	}
}

// parJoinPrivate is parJoinQ with an always-true filter on each side that
// differs per i: the same rows move, but no two pipelines have a build
// side in common, so none is served from the session's build memo.
func parJoinPrivate(i int) sqlparse.Statement {
	return sqlparse.MustParse(fmt.Sprintf("%s AND big.v > %d AND dim.w > %d", parJoinQ, -1-i, -1-i))
}

// runConcurrently runs one statement per pipeline on ONE session, all at
// once, and returns their answers and errors.
func runConcurrently(ex *Executor, sess *Session, pipelines int, stmt func(i int) sqlparse.Statement) ([]*relalg.Relation, []error) {
	var wg sync.WaitGroup
	rels := make([]*relalg.Relation, pipelines)
	errs := make([]error, pipelines)
	for i := 0; i < pipelines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rels[i], errs[i] = ex.ExecuteSession(sess, stmt(i))
		}(i)
	}
	wg.Wait()
	return rels, errs
}

// TestSessionGovernorAtomicUnderParallel is the governor atomicity
// stress: eight pipelines execute concurrently on ONE session — each a
// parallel query with its own exchange workers and its own build side —
// and the session's transfer accounting must come out exact (under -race
// this also proves the charge paths are data-race free).
func TestSessionGovernorAtomicUnderParallel(t *testing.T) {
	cat, _, _ := buildParCatalog(t, parCatalogOpts{bigRows: 3000, dimRows: 800, seed: 6})
	ex := NewExecutor(cat)
	ex.DefaultParallelism = 4

	// Baseline: what one run charges.
	base := ex.NewSession(context.Background(), Limits{})
	if _, err := ex.ExecuteSession(base, parJoinPrivate(0)); err != nil {
		t.Fatal(err)
	}
	perRun := base.TuplesTransferred()
	base.Close()
	if perRun == 0 {
		t.Fatal("baseline run transferred no tuples")
	}

	const pipelines = 8
	sess := ex.NewSession(context.Background(), Limits{})
	defer sess.Close()
	_, errs := runConcurrently(ex, sess, pipelines, parJoinPrivate)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("pipeline %d: %v", i, err)
		}
	}
	if got, want := sess.TuplesTransferred(), pipelines*perRun; got != want {
		t.Errorf("session charged %d tuples across %d concurrent pipelines, want exactly %d",
			got, pipelines, want)
	}
	if hits := ex.Stats().CacheHits; hits != 0 {
		t.Errorf("distinct build sides shared %d builds, want 0", hits)
	}

	// And the budget aborts, rather than overshooting silently, when the
	// concurrent pipelines exceed it.
	capped := ex.NewSession(context.Background(), Limits{MaxTuples: perRun * 2})
	defer capped.Close()
	var exceeded bool
	_, cerrs := runConcurrently(ex, capped, pipelines, parJoinPrivate)
	for _, err := range cerrs {
		if errors.Is(err, ErrTuplesExceeded) {
			exceeded = true
		}
	}
	if !exceeded {
		t.Errorf("no pipeline reported ErrTuplesExceeded under an exceeded shared budget")
	}
}

// TestSessionSharedBuildUnderParallel is the shared twin: eight
// concurrent pipelines of one session with ONE build key single-flight
// the build — its source is fetched exactly once, the seven others are
// cache hits charged nothing — while every pipeline still streams its own
// probe side and returns the full answer (run under -race: eight exchange
// joins probe one frozen table at once).
func TestSessionSharedBuildUnderParallel(t *testing.T) {
	cat, bigCtr, dimCtr := buildParCatalog(t, parCatalogOpts{bigRows: 3000, dimRows: 800, seed: 6, nullKeys: true})
	ex := NewExecutor(cat)
	ex.DefaultParallelism = 4
	shared := func(int) sqlparse.Statement { return sqlparse.MustParse(parJoinQ) }

	// A private-build run first: the yardstick answer and charge. Its
	// Close also hands the learned statistics over, so every plan below —
	// sess flushes nothing until its own Close — is the same plan.
	base := ex.NewSession(context.Background(), Limits{})
	res, err := ex.ExecuteSession(base, shared(0))
	if err != nil {
		t.Fatal(err)
	}
	want := res.String()
	base.Close()

	const pipelines = 8
	sess := ex.NewSession(context.Background(), Limits{})
	defer sess.Close()
	plan, err := ex.PlanCtx(bg, shared(0).(*sqlparse.Select))
	if err != nil {
		t.Fatal(err)
	}
	ex.ParallelizePlan(plan, sess)
	probe, build := plan.Steps[0], plan.Steps[1]
	rows := map[string]int{"big": 3000, "dim": 800}
	ctrs := map[string]*wrappertest.Counter{"big": bigCtr, "dim": dimCtr}
	fetches := func(step PlanStep) int { // source queries of one scan of the step
		if step.ScanParts > 1 {
			return step.ScanParts
		}
		return 1
	}

	bigCtr.Reset()
	dimCtr.Reset()
	before := ex.Stats().CacheHits
	got, errs := runConcurrently(ex, sess, pipelines, shared)
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("pipeline %d: %v", i, errs[i])
		}
		if got[i].String() != want {
			t.Errorf("pipeline %d: answer over the shared table differs from a private build", i)
		}
	}
	if hits := ex.Stats().CacheHits - before; hits != pipelines-1 {
		t.Errorf("CacheHits = %d, want %d (one build, the rest served from it)", hits, pipelines-1)
	}
	if got, want := ctrs[build.Relation].Queries(), fetches(build); got != want {
		t.Errorf("build side %s saw %d source queries, want %d: fetched exactly once", build.Relation, got, want)
	}
	if got, want := ctrs[probe.Relation].Queries(), pipelines*fetches(probe); got != want {
		t.Errorf("probe side %s saw %d source queries, want %d: streamed by every pipeline", probe.Relation, got, want)
	}
	if got, want := sess.TuplesTransferred(), rows[build.Relation]+pipelines*rows[probe.Relation]; got != want {
		t.Errorf("session charged %d tuples, want %d (cache hits are charged nothing)", got, want)
	}
}

// TestParallelGroupByAndSortMatchSerial covers the post-pipeline breakers
// under the knob: ORDER BY above the partitioned sort, and GROUP BY (one
// serial core, with or without a sort above it) over fanned-out scans,
// at several worker counts on one dataset.
func TestParallelGroupByAndSortMatchSerial(t *testing.T) {
	cat, _, _ := buildParCatalog(t, parCatalogOpts{bigRows: 3000, dimRows: 800, seed: 7, nullKeys: true})
	ex := NewExecutor(cat)
	for _, q := range []string{
		"SELECT big.k, big.v FROM big ORDER BY big.k, big.v DESC",
		"SELECT big.k, COUNT(*), MIN(big.v), MAX(big.v) FROM big GROUP BY big.k",
		"SELECT big.k, SUM(big.v) FROM big GROUP BY big.k ORDER BY big.k",
	} {
		serial := runPar(t, cat, ex, q, 1)
		for _, par := range []int{2, 5, 8} {
			if got := runPar(t, cat, ex, q, par); got != serial {
				t.Errorf("parallelism %d: %q differs from serial", par, q)
			}
		}
	}
}
