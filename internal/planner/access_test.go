package planner

// Tests for the source access layer: bind-join batching (⌈N/BatchSize⌉
// IN-list queries, answers identical to per-value probing), NULL-feeder
// skipping, the session result cache with single-flight deduplication,
// dispatcher admission bounds, and the LIMIT 0 short-circuit. The package's race-detector
// run (make test-race) covers the concurrent paths.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
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

// bindQ joins a local feeder relation against a required-binding target:
// the planner must feed tgt.k from feed.k through a bind join.
const bindQ = "SELECT feed.k, tgt.v FROM feed, tgt WHERE tgt.k = feed.k"

// buildBindCatalog wires a feeder source and an IN-capable target source
// whose relation tgt(k,v) requires k bound (a form-like relational
// endpoint), instrumented with a Counter.
func buildBindCatalog(t *testing.T, feedKeys []relalg.Value, targetRows [][2]relalg.Value, batchSize int, index bool) (*Catalog, *wrappertest.Counter) {
	t.Helper()
	fdb := store.NewDB("feedsrc")
	ftab := fdb.MustCreateTable("feed", relalg.NewSchema(
		relalg.Column{Name: "k", Type: relalg.KindString}))
	for _, k := range feedKeys {
		ftab.MustInsert(k)
	}
	tdb := store.NewDB("bindsrc")
	ttab := tdb.MustCreateTable("tgt", relalg.NewSchema(
		relalg.Column{Name: "k", Type: relalg.KindString},
		relalg.Column{Name: "v", Type: relalg.KindNumber}))
	for _, r := range targetRows {
		ttab.MustInsert(r[0], r[1])
	}
	if index {
		if err := ttab.CreateIndex("k"); err != nil {
			t.Fatal(err)
		}
	}
	rw := wrapper.NewRelational(tdb)
	rw.BatchSize = batchSize
	rw.Require = map[string][]string{"tgt": {"k"}}
	ctr := wrappertest.NewCounter(rw)
	cat := NewCatalog()
	cat.MustAddSource(wrapper.NewRelational(fdb))
	cat.MustAddSource(ctr)
	return cat, ctr
}

// keysOf builds n distinct string keys k00..k<n-1>.
func keysOf(n int) []relalg.Value {
	out := make([]relalg.Value, n)
	for i := range out {
		out[i] = relalg.StrV(fmt.Sprintf("k%02d", i))
	}
	return out
}

// targetFor builds rows for every key, m rows each, interleaved by key so
// a batched scan returns them in non-grouped order (exercising the
// engine's regrouping).
func targetFor(keys []relalg.Value, m int) [][2]relalg.Value {
	var rows [][2]relalg.Value
	for j := 0; j < m; j++ {
		for i, k := range keys {
			rows = append(rows, [2]relalg.Value{k, relalg.NumV(float64(100*j + i))})
		}
	}
	return rows
}

// TestBindJoinBatchesProbes is the acceptance criterion of the tentpole:
// a bind join over N distinct feeder values against an IN-capable source
// issues exactly ⌈N/BatchSize⌉ source queries, and the answer — tuples
// and order — is identical to the unbatched per-value path.
func TestBindJoinBatchesProbes(t *testing.T) {
	const n, batch = 10, 4
	keys := keysOf(n)
	feed := append(append([]relalg.Value(nil), keys...), keys[0], keys[3]) // duplicates dedup away
	rows := targetFor(keys, 3)

	cat, ctr := buildBindCatalog(t, feed, rows, batch, false)
	ex := NewExecutor(cat)
	batched, err := execute(bg, ex, sqlparse.MustParse(bindQ))
	if err != nil {
		t.Fatal(err)
	}
	want := (n + batch - 1) / batch
	if got := ctr.Queries(); got != want {
		t.Errorf("batched bind join issued %d source queries, want ⌈%d/%d⌉ = %d", got, n, batch, want)
	}

	cat2, ctr2 := buildBindCatalog(t, feed, rows, batch, false)
	ex2 := NewExecutor(cat2)
	ex2.DisableBatching = true
	unbatched, err := execute(bg, ex2, sqlparse.MustParse(bindQ))
	if err != nil {
		t.Fatal(err)
	}
	if got := ctr2.Queries(); got != n {
		t.Errorf("unbatched bind join issued %d source queries, want %d", got, n)
	}
	if batched.String() != unbatched.String() {
		t.Errorf("batched answer differs from unbatched:\n%s\nvs\n%s", batched, unbatched)
	}
	if want := len(feed) * 3; batched.Len() != want {
		t.Errorf("answer has %d rows, want %d (every feeder row × 3 target rows)", batched.Len(), want)
	}
}

// TestBindJoinSkipsNullFeeders pins the NULL-probe bugfix: feeder rows
// with NULL keys produce no `k = NULL` source query (which could never
// join under SQL semantics), and the answer is unaffected.
func TestBindJoinSkipsNullFeeders(t *testing.T) {
	keys := keysOf(3)
	feed := []relalg.Value{keys[0], relalg.Null, keys[1], relalg.Null, keys[2]}
	rows := targetFor(keys, 1)
	for _, batch := range []int{1, 2} {
		cat, ctr := buildBindCatalog(t, feed, rows, batch, false)
		ex := NewExecutor(cat)
		if batch == 1 {
			ex.DisableBatching = true
		}
		res, err := execute(bg, ex, sqlparse.MustParse(bindQ))
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 3 {
			t.Errorf("batch=%d: answer has %d rows, want 3:\n%s", batch, res.Len(), res)
		}
		for _, q := range ctr.Log() {
			for _, f := range q.Filters {
				if f.Op == "=" && f.Value.IsNull() {
					t.Errorf("batch=%d: NULL equality probe reached the source: %+v", batch, q)
				}
				for _, v := range f.Values {
					if v.IsNull() {
						t.Errorf("batch=%d: NULL inside IN list reached the source: %+v", batch, q)
					}
				}
			}
		}
		want := 3
		if batch == 2 {
			want = 2 // ⌈3/2⌉
		}
		if got := ctr.Queries(); got != want {
			t.Errorf("batch=%d: %d source queries, want %d (NULLs must not probe)", batch, got, want)
		}
	}
}

// TestProbeCacheDeduplicatesAcrossBranches: two mediation branches with
// identical bind probes hit the target source once; the repeats are
// served from the session result cache and counted as cache hits, not
// source queries.
func TestProbeCacheDeduplicatesAcrossBranches(t *testing.T) {
	const n, batch = 6, 3
	keys := keysOf(n)
	rows := targetFor(keys, 2)
	cat, ctr := buildBindCatalog(t, keys, rows, batch, false)
	med := &core.Mediation{
		Branches: []*sqlparse.Select{
			sqlparse.MustParse(bindQ).(*sqlparse.Select),
			sqlparse.MustParse(bindQ).(*sqlparse.Select),
		},
		UnionAll: true,
	}
	ex := NewExecutor(cat)
	res, err := executeMediation(bg, ex, med)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2*n*2 {
		t.Errorf("answer has %d rows, want %d", res.Len(), 2*n*2)
	}
	want := (n + batch - 1) / batch
	if got := ctr.Queries(); got != want {
		t.Errorf("target reached %d times, want %d (branch 2 must hit the cache)", got, want)
	}
	if d := ctr.MaxDuplicates(); d != 1 {
		t.Errorf("an identical probe reached the source %d times, want 1", d)
	}
	if st := ex.Stats(); st.CacheHits != want {
		t.Errorf("CacheHits = %d, want %d", st.CacheHits, want)
	}
}

// TestProbeCacheSingleFlightUnderParallel: identical probes issued
// concurrently on one session against a slow target are joined in flight
// — the source sees the canonical query exactly once, and every other
// caller is served the first one's answer as a cache hit.
func TestProbeCacheSingleFlightUnderParallel(t *testing.T) {
	const callers = 8
	keys := keysOf(4)
	cat, ctr := buildBindCatalog(t, keys, targetFor(keys, 1), 2, false)
	ctr.Delay = 20 * time.Millisecond
	ex := NewExecutor(cat)
	sess := ex.NewSession(bg, Limits{})
	defer sess.Close()
	q := wrapper.SourceQuery{Relation: "tgt", Filters: []wrapper.Filter{
		{Column: "k", Op: wrapper.OpIn, Values: keys[:2]}}}

	rels := make([]*relalg.Relation, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range rels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rels[i], errs[i] = ex.fetchSource(sess.Context(), sess, ctr, q)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
		if rels[i] != rels[0] || rels[i].Len() != 2 {
			t.Errorf("caller %d got %v, want the one shared 2-row answer", i, rels[i])
		}
	}
	if got := ctr.Queries(); got != 1 {
		t.Errorf("single-flight failed: the probe reached the source %d times, want 1", got)
	}
	if st := ex.Stats(); st.CacheHits != callers-1 {
		t.Errorf("CacheHits = %d, want %d", st.CacheHits, callers-1)
	}
}

// TestDispatcherBoundsInflight: the per-source dispatcher admits at most
// Cost.MaxConcurrent probes at once, and a session's
// MaxConcurrentPerSource lowers the ceiling further.
func TestDispatcherBoundsInflight(t *testing.T) {
	const n = 12
	keys := keysOf(n)
	rows := targetFor(keys, 1)

	build := func() (*Executor, *wrappertest.Counter) {
		cat, ctr := buildBindCatalog(t, keys, rows, 1, false)
		ctr.Delay = 2 * time.Millisecond
		ctr.Wrapper.(*wrapper.Relational).CostParams = wrapper.Cost{PerQuery: 10, PerTuple: 0.1, MaxConcurrent: 2}
		ex := NewExecutor(cat)
		ex.DisableBatching = true
		return ex, ctr
	}

	ex, ctr := build()
	if _, err := execute(bg, ex, sqlparse.MustParse(bindQ)); err != nil {
		t.Fatal(err)
	}
	if got := ctr.MaxInflight(); got > 2 {
		t.Errorf("max in-flight queries = %d, want <= Cost.MaxConcurrent = 2", got)
	} else if got < 2 {
		t.Errorf("max in-flight queries = %d; probes did not overlap at all", got)
	}

	ex2, ctr2 := build()
	sess := ex2.NewSession(context.Background(), Limits{MaxConcurrentPerSource: 1})
	defer sess.Close()
	if _, err := ex2.ExecuteSession(sess, sqlparse.MustParse(bindQ)); err != nil {
		t.Fatal(err)
	}
	if got := ctr2.MaxInflight(); got != 1 {
		t.Errorf("max in-flight with session cap 1 = %d, want 1", got)
	}
}

// failingWrapper fails every fetch; it overrides the embedded Streamer
// too so streamed scans fail identically.
type failingWrapper struct {
	wrapper.Wrapper
}

var errInjected = errors.New("injected source failure")

func (f *failingWrapper) Query(context.Context, wrapper.SourceQuery) (*relalg.Relation, error) {
	return nil, errInjected
}

func (f *failingWrapper) QueryStream(context.Context, wrapper.SourceQuery) (wrapper.TupleStream, error) {
	return nil, errInjected
}

// TestLimitZeroTransfersNothing pins the LIMIT 0 short-circuit: the scan
// leaf is never opened, so zero source queries run and zero tuples move.
func TestLimitZeroTransfersNothing(t *testing.T) {
	ex := NewExecutor(bigCatalog(1000))
	res, err := execute(bg, ex, sqlparse.MustParse("SELECT nums.n FROM nums LIMIT 0"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("LIMIT 0 returned %d rows", res.Len())
	}
	if st := ex.Stats(); st.SourceQueries != 0 || st.TuplesTransferred != 0 {
		t.Errorf("LIMIT 0 still touched the source: %+v", st)
	}
}

// TestBatchedEquivalenceRandomized fuzzes the batched path against the
// per-value path over randomized fixtures: random feeder bags (with
// duplicates and NULLs), random target tables (unmatched keys, duplicate
// rows per key), random batch widths, indexed and not. Answers must be
// identical tuple for tuple, in order.
func TestBatchedEquivalenceRandomized(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := keysOf(3 + rng.Intn(12))
		var feed []relalg.Value
		for i := 0; i < 2+rng.Intn(30); i++ {
			if rng.Intn(8) == 0 {
				feed = append(feed, relalg.Null)
			} else {
				feed = append(feed, pool[rng.Intn(len(pool))])
			}
		}
		var rows [][2]relalg.Value
		for i := 0; i < rng.Intn(60); i++ {
			// Indexes past the pool are keys the feeder never mentions.
			k := fmt.Sprintf("k%02d", rng.Intn(len(pool)+3))
			rows = append(rows, [2]relalg.Value{relalg.StrV(k), relalg.NumV(float64(rng.Intn(10)))})
		}
		batch := 1 + rng.Intn(5)
		index := rng.Intn(2) == 0

		cat, _ := buildBindCatalog(t, feed, rows, batch, index)
		a, err := execute(bg, NewExecutor(cat), sqlparse.MustParse(bindQ))
		if err != nil {
			t.Fatalf("seed %d: batched: %v", seed, err)
		}
		cat2, _ := buildBindCatalog(t, feed, rows, batch, index)
		ex2 := NewExecutor(cat2)
		ex2.DisableBatching = true
		b, err := execute(bg, ex2, sqlparse.MustParse(bindQ))
		if err != nil {
			t.Fatalf("seed %d: unbatched: %v", seed, err)
		}
		if a.String() != b.String() {
			t.Errorf("seed %d (batch=%d index=%v): batched differs from unbatched:\n%s\nvs\n%s",
				seed, batch, index, a, b)
		}
	}
}

// TestExplainShowsBatchWidth: the plan explains its batching decision.
func TestExplainShowsBatchWidth(t *testing.T) {
	cat, _ := buildBindCatalog(t, keysOf(4), targetFor(keysOf(4), 1), 7, false)
	ex := NewExecutor(cat)
	plan, err := ex.PlanCtx(bg, sqlparse.MustParse(bindQ).(*sqlparse.Select))
	if err != nil {
		t.Fatal(err)
	}
	if exp := plan.Explain(); !strings.Contains(exp, "batch[7]") {
		t.Errorf("explain lacks batch width:\n%s", exp)
	}
}

// TestUnionArmsShareAdmissionSlot: a mediation branch stopped by its own
// LIMIT before stream exhaustion must release its admission slot when
// the union advances past it — with a per-source cap of 1, the next
// branch over the same source would otherwise wait forever for the slot
// the drained branch still held.
func TestUnionArmsShareAdmissionSlot(t *testing.T) {
	cat := bigCatalog(100)
	med := &core.Mediation{
		Branches: []*sqlparse.Select{
			sqlparse.MustParse("SELECT nums.n FROM nums LIMIT 1").(*sqlparse.Select),
			sqlparse.MustParse("SELECT nums.n FROM nums LIMIT 2").(*sqlparse.Select),
		},
		UnionAll: true,
	}
	ex := NewExecutor(cat)
	sess := ex.NewSession(context.Background(), Limits{MaxConcurrentPerSource: 1})
	defer sess.Close()
	done := make(chan error, 1)
	go func() {
		res, err := executeMediationSession(ex, sess, med)
		if err == nil && res.Len() != 3 {
			err = fmt.Errorf("rows = %d, want 3", res.Len())
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("union arms deadlocked on the per-source admission slot")
	}
}

// TestFirstRealErrorPrefersNonContext is the regression test for the
// sibling-echo bug: a branch killed by the shared deadline (or the
// branch-scoped cancel) reports a context error, and that echo must not
// mask the sibling failure that actually caused it — for deadlines just
// as for cancellation.
func TestFirstRealErrorPrefersNonContext(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name string
		errs []error
		want error
	}{
		{"cause after canceled echo", []error{context.Canceled, boom}, boom},
		{"cause after deadline echo", []error{context.DeadlineExceeded, boom}, boom},
		{"cause after wrapped deadline", []error{fmt.Errorf("branch: %w", context.DeadlineExceeded), boom}, boom},
		{"all context: first wins", []error{context.Canceled, context.DeadlineExceeded}, context.Canceled},
		{"nil holes skipped", []error{nil, boom, nil}, boom},
		{"all nil", []error{nil, nil}, nil},
	}
	for _, tc := range cases {
		if got := firstRealError(tc.errs); !errors.Is(got, tc.want) {
			t.Errorf("%s: firstRealError = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestChaosSlotAccountingUnderFailure: every failure path of the access
// layer — materialized probe, stream open, bind-join probe — must hand
// its dispatcher slot back. A leak here is invisible to a single query
// and deadly to the next one.
func TestChaosSlotAccountingUnderFailure(t *testing.T) {
	// Failing scan stream.
	bad := store.NewDB("badsrc")
	bad.MustCreateTable("bad", relalg.NewSchema(
		relalg.Column{Name: "n", Type: relalg.KindNumber}))
	cat := NewCatalog()
	cat.MustAddSource(&failingWrapper{Wrapper: wrapper.NewRelational(bad)})
	ex := NewExecutor(cat)
	if _, err := execute(bg, ex, sqlparse.MustParse("SELECT bad.n FROM bad")); !errors.Is(err, errInjected) {
		t.Fatalf("scan err = %v", err)
	}
	assertNoLeakedSlots(t, ex)

	// Failing bind-join probe: the feeder succeeds, the target fails.
	keys := keysOf(4)
	cat2, _ := buildBindCatalog(t, keys, targetFor(keys, 1), 0, false)
	w, err := cat2.WrapperFor("tgt")
	if err != nil {
		t.Fatal(err)
	}
	cat3 := NewCatalog()
	cat3.MustAddSource(&failingWrapper{Wrapper: w})
	feed, err := cat2.WrapperFor("feed")
	if err != nil {
		t.Fatal(err)
	}
	cat3.MustAddSource(feed)
	ex = NewExecutor(cat3)
	if _, err := execute(bg, ex, sqlparse.MustParse(bindQ)); !errors.Is(err, errInjected) {
		t.Fatalf("bind-join err = %v", err)
	}
	assertNoLeakedSlots(t, ex)

	// The same shape with retries on: the retry loop re-acquires per
	// attempt and must not leak across attempts either. errInjected is
	// unclassified, hence not retryable — wrap the target in a Flaky
	// scripting transient faults instead.
	fl := wrappertest.NewFlaky(w)
	fl.FailAlways(wrapper.Transient(errors.New("down")))
	cat4 := NewCatalog()
	cat4.MustAddSource(fl)
	cat4.MustAddSource(feed)
	ex = NewExecutor(cat4)
	ex.Retry = RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond}
	if _, err := execute(bg, ex, sqlparse.MustParse(bindQ)); err == nil {
		t.Fatal("bind-join against dead source succeeded")
	}
	assertNoLeakedSlots(t, ex)
}
