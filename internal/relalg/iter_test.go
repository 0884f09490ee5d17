package relalg

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/sqlparse"
)

// mustExpr parses a standalone expression by wrapping it in a SELECT.
func mustExpr(s string) sqlparse.Expr {
	sel := sqlparse.MustParse("SELECT 1 FROM d WHERE " + s).(*sqlparse.Select)
	return sel.Where
}

// next1 pulls a single tuple through the batch contract (its degenerate
// one-tuple form) — the shim for tests asserting per-row behavior.
func next1(it Iterator) (Tuple, bool, error) {
	b, err := it.Next(1)
	if err != nil || b.Empty() {
		return nil, false, err
	}
	return b.Rows[0], true, nil
}

// countingScan wraps a scan and counts how many tuples consumers pull
// and whether it was opened — the instrument for early-termination and
// laziness tests.
type countingScan struct {
	*ScanIter
	pulls  int
	opened bool
}

func newCountingScan(rel *Relation) *countingScan {
	return &countingScan{ScanIter: NewScan(rel)}
}

func (c *countingScan) Open(ctx context.Context) error {
	c.opened = true
	return c.ScanIter.Open(ctx)
}

func (c *countingScan) Next(max int) (Batch, error) {
	b, err := c.ScanIter.Next(max)
	c.pulls += len(b.Rows)
	return b, err
}

// raggedScan serves a relation in batches whose sizes cycle through a
// fixed pattern (clamped to the consumer's max and the rows remaining),
// so the final batch is ragged and operators see uneven block shapes —
// the adversarial leaf for batch-contract tests.
type raggedScan struct {
	*ScanIter
	sizes []int
	i     int
}

func newRaggedScan(rel *Relation, sizes []int) *raggedScan {
	return &raggedScan{ScanIter: NewScan(rel), sizes: sizes}
}

func (r *raggedScan) Next(max int) (Batch, error) {
	n := r.sizes[r.i%len(r.sizes)]
	r.i++
	if max <= 0 || max > n {
		max = n
	}
	return r.ScanIter.Next(max)
}

// neverOpened fails the test's join if its build child is touched: a
// join served a shared table must not open it.
type neverOpened struct{ *ScanIter }

func (n *neverOpened) Open(context.Context) error {
	return fmt.Errorf("build child opened although the table was shared")
}

// oversizeScan violates the contract by returning more rows than max —
// the adversarial child for LIMIT's defensive truncation.
type oversizeScan struct {
	*ScanIter
}

func (o *oversizeScan) Next(max int) (Batch, error) {
	return o.ScanIter.Next(max * 3)
}

// randomRelation builds a deterministic pseudo-random relation of n rows
// over (k number, s string, v number), with key collisions so joins,
// distinct and grouping all have work to do.
func randomRelation(name string, n int, rng *rand.Rand) *Relation {
	rel := NewRelation(name, NewSchema(
		Column{Name: "k", Type: KindNumber},
		Column{Name: "s", Type: KindString},
		Column{Name: "v", Type: KindNumber},
	))
	for i := 0; i < n; i++ {
		rel.MustAdd(
			NumV(float64(rng.Intn(n/2+1))),
			StrV(fmt.Sprintf("s%d", rng.Intn(4))),
			NumV(float64(rng.Intn(100))),
		)
	}
	return rel
}

// rows serializes a relation's tuple sequence (order-sensitive).
func rows(r *Relation) []string {
	out := make([]string, len(r.Tuples))
	for i, t := range r.Tuples {
		out[i] = t.FullKey()
	}
	return out
}

func sameRows(t *testing.T, op string, got, want *Relation) {
	t.Helper()
	g, w := rows(got), rows(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d tuples, want %d\ngot:\n%s\nwant:\n%s", op, len(g), len(w), got, want)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: tuple %d differs\ngot:\n%s\nwant:\n%s", op, i, got, want)
		}
	}
}

// TestOperatorsRaggedBatchEquivalence: on randomized inputs, every
// streaming operator must produce exactly the same tuples in the same
// order whether its children deliver full batches or ragged ones, and a
// hash join the same bag whichever side builds.
func TestOperatorsRaggedBatchEquivalence(t *testing.T) {
	pred := mustExpr("v >= 30")
	joinPred := mustExpr("a.k = b.k")
	items := []ProjectItem{
		{Name: "k2", Expr: mustExpr("k * 2")},
		{Name: "s", Expr: mustExpr("s")},
	}
	aggItems := []AggItem{
		{Name: "s", Expr: mustExpr("s")},
		{Name: "total", Expr: mustExpr("SUM(v)")},
	}
	groupKeys := []sqlparse.Expr{mustExpr("s")}
	ak, bk := []string{"a.k"}, []string{"b.k"}
	ragged := []int{3, 1, 7, 2}

	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		r := randomRelation("r", n, rng)
		a := randomRelation("x", n, rng).Qualify("a")
		b := randomRelation("y", 1+rng.Intn(40), rng).Qualify("b")
		rag := func(rel *Relation) Iterator { return newRaggedScan(rel, ragged) }

		check := func(op string, plain, rough Iterator) {
			t.Helper()
			sameRows(t, fmt.Sprintf("seed %d %s", seed, op), drain(t, rough), drain(t, plain))
		}
		check("filter", NewFilter(NewScan(r), pred), NewFilter(rag(r), pred))
		check("project", NewProject(NewScan(r), items), NewProject(rag(r), items))
		check("nested-loop", NewNestedLoop(NewScan(a), b, joinPred), NewNestedLoop(rag(a), b, joinPred))
		check("distinct", NewDistinct(NewScan(r)), NewDistinct(rag(r)))
		check("limit", NewLimit(NewScan(r), n/2), NewLimit(rag(r), n/2))
		check("group-by", NewGroupBy(NewScan(r), groupKeys, aggItems, nil, nil), NewGroupBy(rag(r), groupKeys, aggItems, nil, nil))

		hj, err := NewHashJoin(NewScan(a), NewScan(b), ak, bk, nil, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		hjr, err := NewHashJoin(rag(a), rag(b), ak, bk, nil, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		whj := drain(t, hj)
		sameRows(t, fmt.Sprintf("seed %d hash-join", seed), drain(t, hjr), whj)
		hjo, err := collect(NewHashJoin(NewScan(a), NewScan(b), ak, bk, nil, true, nil))
		if err != nil {
			t.Fatal(err)
		}
		if !sameTuples(hjo, whj) {
			t.Fatalf("seed %d: hash join bags differ across build sides", seed)
		}

		// One shared table, NULL / NaN / duplicate keys: two joins handed
		// the same BuildTable agree row for row with a private build, and
		// the build side is drained exactly once — the second join never
		// opens its own.
		kl := randomKeyedRel(rng, "l", 60+rng.Intn(60), 9, seed%2 == 0)
		kr := randomKeyedRel(rng, "r", 40+rng.Intn(60), 9, seed%2 == 1)
		for _, keys := range [][]string{{"sk"}, {"nk"}, {"sk", "nk"}} {
			priv, err := NewHashJoin(NewScan(kl), NewScan(kr), keys, keys, nil, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := drainOrdered(t, priv, 16)
			var tbl *BuildTable
			builds := 0
			share := func(_ context.Context, build func() (*BuildTable, error)) (*BuildTable, error) {
				if tbl == nil {
					builds++
					var err error
					if tbl, err = build(); err != nil {
						return nil, err
					}
				}
				return tbl, nil
			}
			shj, err := NewHashJoin(rag(kl), rag(kr), keys, keys, nil, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			shj.Shared = share
			requireSameRows(t, fmt.Sprintf("seed %d shared serial %v", seed, keys), want, drainOrdered(t, shj, 16))
			second, err := NewHashJoin(rag(kl), &neverOpened{NewScan(kr)}, keys, keys, nil, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			second.Shared = share
			requireSameRows(t, fmt.Sprintf("seed %d shared second prober %v", seed, keys), want, drainOrdered(t, second, 16))
			if builds != 1 {
				t.Fatalf("seed %d %v: build side drained %d times, want 1", seed, keys, builds)
			}
		}

		ua, err := NewUnionAll(NewScan(a), NewScan(b))
		if err != nil {
			t.Fatal(err)
		}
		uar, err := NewUnionAll(rag(a), rag(b))
		if err != nil {
			t.Fatal(err)
		}
		check("union-all", ua, uar)
	}
}

// TestLimitStopsPulling proves the early-exit property at the operator
// level: LIMIT n pulls exactly n tuples from its source, regardless of
// source size — batch demand propagation caps what the leaf serves.
func TestLimitStopsPulling(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := newCountingScan(randomRelation("big", 5000, rng))
	out, err := Collect(context.Background(), NewLimit(src, 7), "")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 7 {
		t.Fatalf("limit returned %d tuples", out.Len())
	}
	if src.pulls != 7 {
		t.Errorf("source pulls = %d, want exactly 7", src.pulls)
	}
}

// TestLimitMidBatch: a LIMIT landing in the middle of what a source
// would happily serve as one large batch still transfers exactly the
// limit — and keeps doing so when the source's own batch shape is
// ragged, so the boundary falls mid-batch.
func TestLimitMidBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rel := randomRelation("big", 5000, rng)
	want := &Relation{Schema: rel.Schema, Tuples: rel.Tuples[:700]}

	src := newCountingScan(rel)
	out, err := Collect(context.Background(), NewLimit(src, 700), "")
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "limit-mid-batch", out, want)
	if src.pulls != 700 {
		t.Errorf("source pulls = %d, want exactly 700", src.pulls)
	}

	// Ragged shape: sizes don't divide 700, so the last demand lands
	// mid-cycle; the leaf must still never overshoot the remainder.
	rsrc := newCountingScan(rel)
	ragged := NewLimit(&raggedWrap{inner: rsrc, sizes: []int{256, 13, 300}}, 700)
	out, err = Collect(context.Background(), ragged, "")
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "limit-mid-batch-ragged", out, want)
	if rsrc.pulls != 700 {
		t.Errorf("ragged source pulls = %d, want exactly 700", rsrc.pulls)
	}
}

// raggedWrap imposes a ragged batch-size cycle on any iterator.
type raggedWrap struct {
	inner Iterator
	sizes []int
	i     int
}

func (r *raggedWrap) Schema() Schema                 { return r.inner.Schema() }
func (r *raggedWrap) Open(ctx context.Context) error { return r.inner.Open(ctx) }
func (r *raggedWrap) Close() error                   { return r.inner.Close() }
func (r *raggedWrap) Next(max int) (Batch, error) {
	n := r.sizes[r.i%len(r.sizes)]
	r.i++
	if max <= 0 || max > n {
		max = n
	}
	return r.inner.Next(max)
}

// TestLimitTruncatesOversizedBatch: a child that violates the contract
// by returning more rows than asked is clipped by LIMIT — the governor
// of last resort for row transfer.
func TestLimitTruncatesOversizedBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rel := randomRelation("r", 100, rng)
	out, err := Collect(context.Background(), NewLimit(&oversizeScan{NewScan(rel)}, 5), "")
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "limit-oversize", out, &Relation{Schema: rel.Schema, Tuples: rel.Tuples[:5]})
}

// TestFilterSkipsEmptyBatches: when whole child batches filter down to
// zero survivors, the filter must keep pulling instead of surfacing an
// empty batch — an empty batch means EOF to every consumer, and a
// premature one would silently truncate the stream.
func TestFilterSkipsEmptyBatches(t *testing.T) {
	rel := NewRelation("t", NewSchema(Column{Name: "n", Type: KindNumber}))
	for i := 0; i < 50; i++ {
		rel.MustAdd(NumV(float64(i)))
	}
	// Batches of 5: the first 8 batches (n < 40) drop entirely.
	it := NewFilter(newRaggedScan(rel, []int{5}), mustExpr("n >= 40"))
	out, err := Collect(context.Background(), it, "")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 10 {
		t.Fatalf("got %d tuples after empty-batch runs, want 10", out.Len())
	}
}

// TestLimitThroughPipelineStopsPulling: early exit survives interposed
// streaming operators (filter, project, distinct).
func TestLimitThroughPipelineStopsPulling(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := newCountingScan(randomRelation("big", 5000, rng))
	pipeline := NewLimit(
		NewDistinct(NewProject(
			NewFilter(src, mustExpr("v >= 10")),
			[]ProjectItem{{Name: "s", Expr: mustExpr("s")}},
		)), 2)
	out, err := Collect(context.Background(), pipeline, "")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("got %d tuples", out.Len())
	}
	// 4 distinct s-values over thousands of rows: finding 2 must touch
	// only a handful of source tuples.
	if src.pulls > 100 {
		t.Errorf("source pulls = %d; early exit failed to propagate", src.pulls)
	}
}

// TestUnionOpensLazily: a union never opens children beyond the ones it
// needed, so an early exit skips later inputs entirely.
func TestUnionOpensLazily(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	first := newCountingScan(randomRelation("first", 10, rng))
	second := newCountingScan(randomRelation("second", 10, rng))
	u, err := NewUnionAll(first, second)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(context.Background(), NewLimit(u, 5), "")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 5 {
		t.Fatalf("got %d tuples", out.Len())
	}
	if !first.opened || first.pulls != 5 {
		t.Errorf("first child: opened=%v pulls=%d, want opened with 5 pulls", first.opened, first.pulls)
	}
	if second.opened {
		t.Error("second union child was opened despite the limit being satisfied by the first")
	}
}

// TestIteratorContractAfterExhaustion: Next keeps reporting an empty
// batch after the stream ends, as the documented contract requires.
func TestIteratorContractAfterExhaustion(t *testing.T) {
	rel := NewRelation("t", NewSchema(Column{Name: "n", Type: KindNumber}))
	rel.MustAdd(NumV(1))
	it := NewFilter(NewScan(rel), nil)
	if err := it.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := next1(it); !ok {
		t.Fatal("first Next should produce the tuple")
	}
	for i := 0; i < 3; i++ {
		if b, err := it.Next(DefaultBatchSize); !b.Empty() || err != nil {
			t.Fatalf("Next after exhaustion: rows=%d err=%v", b.Len(), err)
		}
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestScanCancellationMidStream: canceling the Open context makes a leaf
// report ctx.Err() from Next, even with tuples remaining — the property
// that lets a whole pipeline stop between batches. The first pull is a
// one-row batch, so the cancellation lands mid-batch from the source's
// point of view.
func TestScanCancellationMidStream(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := NewScan(randomRelation("r", 100, rng))
	ctx, cancel := context.WithCancel(context.Background())
	pipe := NewFilter(src, nil)
	if err := pipe.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := next1(pipe); !ok || err != nil {
		t.Fatalf("first Next: ok=%v err=%v", ok, err)
	}
	cancel()
	if b, err := pipe.Next(DefaultBatchSize); !b.Empty() || !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel: rows=%d err=%v, want context.Canceled", b.Len(), err)
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBreakerDrainHonorsCancellation: a pipeline breaker (Sort) draining
// its child at Open stops when the context is already canceled.
func TestBreakerDrainHonorsCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := newCountingScan(randomRelation("r", 10000, rng))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	it := NewSort(src, []OrderKey{{Expr: mustExpr("v")}}, nil)
	if err := it.Open(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Open on canceled ctx: err=%v, want context.Canceled", err)
	}
	if src.pulls != 0 {
		t.Errorf("breaker pulled %d tuples under a canceled context", src.pulls)
	}
}

// TestCollectPropagatesCancellation: Collect itself stops draining when
// the context dies between pulls.
func TestCollectPropagatesCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	src := newCountingScan(randomRelation("r", 5000, rng))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Collect(ctx, src, ""); !errors.Is(err, context.Canceled) {
		t.Fatalf("Collect on canceled ctx: err=%v", err)
	}
}

// TestCollectPresizesAfterOpen: Collect reads its input's row-count hint
// once the input is open, so a DeferredIter (whose child exists only
// then), a SortIter (whose count is known only then) and the wrappers
// over them presize the buffer exactly instead of climbing the doubling
// ladder to 16,384.
func TestCollectPresizesAfterOpen(t *testing.T) {
	rel := randomRelation("r", 10000, rand.New(rand.NewSource(7)))
	deferred := func() Iterator {
		return NewDeferred(rel.Schema, func(context.Context) (Iterator, error) { return NewScan(rel), nil })
	}
	sorted := func() Iterator { return NewSort(NewScan(rel), []OrderKey{{Expr: mustExpr("v")}}, nil) }
	for _, c := range []struct {
		name string
		it   Iterator
		want int
	}{
		{"deferred scan", deferred(), 10000},
		{"sort", sorted(), 10000},
		{"counted checked sort", NewCounted(Checked(NewOnOpen(sorted(), nil)), new(atomic.Int64)), 10000},
		{"limit over sort", NewLimit(sorted(), 2500), 2500},
		{"limit over deferred scan", NewLimit(deferred(), -1), 10000},
	} {
		out, err := Collect(context.Background(), c.it, "")
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != c.want || cap(out.Tuples) != c.want {
			t.Errorf("%s: len %d cap %d, want both %d", c.name, out.Len(), cap(out.Tuples), c.want)
		}
	}
}

// lifecycle instruments an iterator with Open/Close accounting; a
// registry of them fails the test if any node's successful Opens are not
// matched one-for-one by Closes — the leak detector for operator
// composition (the stream-level twin lives in the planner tests). A
// positive failNextAfter injects an error after exactly that many rows:
// when the boundary falls inside a batch, the allowed prefix is served
// and the error surfaces on the following call — the mid-batch failure
// shape.
type lifecycle struct {
	Iterator
	opened, closed int
	failNextAfter  int
	served         int
}

func (l *lifecycle) Open(ctx context.Context) error {
	err := l.Iterator.Open(ctx)
	if err == nil {
		l.opened++
	}
	return err
}

func (l *lifecycle) Next(max int) (Batch, error) {
	if l.failNextAfter > 0 && l.served >= l.failNextAfter {
		return Batch{}, fmt.Errorf("lifecycle: injected failure after %d tuples", l.served)
	}
	b, err := l.Iterator.Next(max)
	if l.failNextAfter > 0 && l.served+len(b.Rows) > l.failNextAfter {
		b.Rows = b.Rows[:l.failNextAfter-l.served]
	}
	l.served += len(b.Rows)
	return b, err
}

func (l *lifecycle) Close() error {
	l.closed++
	return l.Iterator.Close()
}

type lifecycleRegistry []*lifecycle

func (r *lifecycleRegistry) track(it Iterator, failNextAfter int) Iterator {
	l := &lifecycle{Iterator: it, failNextAfter: failNextAfter}
	*r = append(*r, l)
	return l
}

func (r lifecycleRegistry) assertBalanced(t *testing.T) {
	t.Helper()
	for i, l := range r {
		if l.opened != l.closed {
			t.Errorf("iterator %d: %d successful Opens, %d Closes", i, l.opened, l.closed)
		}
		if l.opened > 1 {
			t.Errorf("iterator %d: opened %d times (single-use contract)", i, l.opened)
		}
	}
}

// TestIteratorLifecycleBalanced: across full drains, early exits and
// injected mid-batch failures, every node whose Open succeeded is
// closed exactly once.
func TestIteratorLifecycleBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	build := func(reg *lifecycleRegistry, failAfter int) Iterator {
		a := randomRelation("x", 30, rng).Qualify("a")
		b := randomRelation("y", 20, rng).Qualify("b")
		left := reg.track(NewScan(a), failAfter)
		right := reg.track(NewScan(b), 0)
		hj, err := NewHashJoin(left, right, []string{"a.k"}, []string{"b.k"}, nil, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		sorted := reg.track(NewSort(reg.track(hj, 0), []OrderKey{{Expr: mustExpr("a.v")}}, nil), 0)
		items := []ProjectItem{{Name: "k", Expr: mustExpr("a.k")}}
		u, err := NewUnionAll(
			reg.track(NewProject(sorted, items), 0),
			reg.track(NewProject(reg.track(NewScan(a), 0), items), 0))
		if err != nil {
			t.Fatal(err)
		}
		return reg.track(u, 0)
	}

	t.Run("full drain", func(t *testing.T) {
		var reg lifecycleRegistry
		if _, err := Collect(context.Background(), build(&reg, 0), ""); err != nil {
			t.Fatal(err)
		}
		reg.assertBalanced(t)
	})
	t.Run("early exit", func(t *testing.T) {
		var reg lifecycleRegistry
		if _, err := Collect(context.Background(), NewLimit(build(&reg, 0), 2), ""); err != nil {
			t.Fatal(err)
		}
		reg.assertBalanced(t)
	})
	t.Run("mid-stream failure", func(t *testing.T) {
		var reg lifecycleRegistry
		if _, err := Collect(context.Background(), build(&reg, 5), ""); err == nil {
			t.Fatal("expected injected failure")
		}
		reg.assertBalanced(t)
	})
	t.Run("canceled context", func(t *testing.T) {
		var reg lifecycleRegistry
		it := build(&reg, 0)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := Collect(ctx, it, ""); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v", err)
		}
		reg.assertBalanced(t)
	})
}

// TestFlushBeforeFail: an accumulating operator whose child dies
// mid-batch delivers the rows it had already assembled before surfacing
// the error — no tuple the per-row contract would have delivered is
// lost to batching.
func TestFlushBeforeFail(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randomRelation("x", 30, rng).Qualify("a")
	b := randomRelation("y", 20, rng).Qualify("b")

	// Reference: rows the join yields before the probe side's 5th row.
	failAfter := 5
	ref, err := NewHashJoin(NewScan(&Relation{Schema: a.Schema, Tuples: a.Tuples[:failAfter]}), NewScan(b), []string{"a.k"}, []string{"b.k"}, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Collect(context.Background(), ref, "")
	if err != nil {
		t.Fatal(err)
	}

	probe := &lifecycle{Iterator: NewScan(a), failNextAfter: failAfter}
	hj, err := NewHashJoin(probe, NewScan(b), []string{"a.k"}, []string{"b.k"}, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := hj.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := NewRelation("", hj.Schema())
	var sawErr error
	for {
		batch, err := hj.Next(DefaultBatchSize)
		if err != nil {
			sawErr = err
			break
		}
		if batch.Empty() {
			break
		}
		got.Tuples = append(got.Tuples, batch.Rows...)
	}
	if sawErr == nil {
		t.Fatal("expected the injected failure to surface")
	}
	if err := hj.Close(); err != nil {
		t.Fatal(err)
	}
	sameRows(t, "flush-before-fail", got, want)
}

// TestCountedIter: the EXPLAIN ANALYZE counter sees exactly the tuples
// the consumer pulls, and an early exit stops the count with it.
func TestCountedIter(t *testing.T) {
	rel := NewRelation("d", NewSchema(Column{Name: "n", Type: KindNumber}))
	for i := 0; i < 10; i++ {
		rel.Tuples = append(rel.Tuples, Tuple{NumV(float64(i))})
	}
	var n atomic.Int64
	got, err := Collect(context.Background(), NewCounted(NewScan(rel), &n), "")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 10 || n.Load() != 10 {
		t.Errorf("rows = %d, counted = %d, want 10", got.Len(), n.Load())
	}
	n.Store(0)
	lim, err := Collect(context.Background(), NewLimit(NewCounted(NewScan(rel), &n), 3), "")
	if err != nil {
		t.Fatal(err)
	}
	if lim.Len() != 3 || n.Load() != 3 {
		t.Errorf("limited rows = %d, counted = %d, want 3", lim.Len(), n.Load())
	}
}
