package planner

// Session concurrency under concurrent pipelines: eight pipelines run at
// once on ONE session and its governors and shared build memo must come
// out exact (run under -race).

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/relalg"
	"repro/internal/sqlparse"
	"repro/internal/store"
	"repro/internal/wrapper"
	"repro/internal/wrapper/wrappertest"
)

// parJoinQ joins a large fact table against a smaller build side on k.
const parJoinQ = "SELECT big.k, big.v, dim.w FROM dim, big WHERE big.k = dim.k"

// parCatalogOpts shapes the synthetic two-source workload.
type parCatalogOpts struct {
	bigRows  int
	dimRows  int
	seed     int64
	nullKeys bool // sprinkle NULL join keys on both sides
	skew     bool // give three quarters of big's rows one key
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
			n = 7
		}
		return relalg.StrV(fmt.Sprintf("k%03d", n))
	}
	bdb := store.NewDB("bigsrc")
	btab := bdb.MustCreateTable("big", relalg.NewSchema(
		relalg.Column{Name: "k", Type: relalg.KindString},
		relalg.Column{Name: "v", Type: relalg.KindNumber}))
	for i := 0; i < o.bigRows; i++ {
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
// stress: eight pipelines execute in parallel on ONE session — each with
// its own scan streams and its own build side — and the session's
// transfer accounting must come out exact (under -race this also proves
// the charge paths are data-race free).
func TestSessionGovernorAtomicUnderParallel(t *testing.T) {
	cat, _, _ := buildParCatalog(t, parCatalogOpts{bigRows: 3000, dimRows: 800, seed: 6})
	ex := NewExecutor(cat)

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
// parallel pipelines of one session with ONE build key single-flight
// the build — its source is fetched exactly once, the seven others are
// cache hits charged nothing — while every pipeline still streams its own
// probe side and returns the full answer (run under -race: eight serial
// hash joins, one per pipeline, probe one frozen table at once).
func TestSessionSharedBuildUnderParallel(t *testing.T) {
	cat, bigCtr, dimCtr := buildParCatalog(t, parCatalogOpts{bigRows: 3000, dimRows: 800, seed: 6, nullKeys: true})
	ex := NewExecutor(cat)
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
	probe, build := plan.Steps[0], plan.Steps[1]
	rows := map[string]int{"big": 3000, "dim": 800}
	ctrs := map[string]*wrappertest.Counter{"big": bigCtr, "dim": dimCtr}

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
	if got, want := ctrs[build.Relation].Queries(), 1; got != want {
		t.Errorf("build side %s saw %d source queries, want %d: fetched exactly once", build.Relation, got, want)
	}
	if got, want := ctrs[probe.Relation].Queries(), pipelines; got != want {
		t.Errorf("probe side %s saw %d source queries, want %d: streamed by every pipeline", probe.Relation, got, want)
	}
	if got, want := sess.TuplesTransferred(), rows[build.Relation]+pipelines*rows[probe.Relation]; got != want {
		t.Errorf("session charged %d tuples, want %d (cache hits are charged nothing)", got, want)
	}
}
