package relalg

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sqlparse"
)

// randomKeyedRel builds a relation with a string key, a numeric key and
// a payload column: NULL keys, NaN keys, duplicates and (optionally) a
// heavy skew toward one key — the adversarial shapes for partitioned
// operators.
func randomKeyedRel(rng *rand.Rand, name string, n, keyCard int, skew bool) *Relation {
	sch := Schema{Columns: []Column{
		{Name: "sk", Type: KindString},
		{Name: "nk", Type: KindNumber},
		{Name: "pay", Type: KindNumber},
	}}
	rel := NewRelation(name, sch)
	for i := 0; i < n; i++ {
		k := rng.Intn(keyCard)
		if skew && rng.Intn(3) > 0 {
			k = 0
		}
		sk := StrV(fmt.Sprintf("k%d", k))
		if rng.Intn(10) == 0 {
			sk = Null
		}
		nk := NumV(float64(k % 7))
		switch rng.Intn(17) {
		case 0:
			nk = Null
		case 1:
			nk = NumV(math.NaN())
		}
		rel.Tuples = append(rel.Tuples, Tuple{sk, nk, NumV(float64(i))})
	}
	return rel
}

// drainOrdered pulls it to exhaustion and returns every row in stream
// order (headers copied; the tuples themselves are durable).
func drainOrdered(t *testing.T, it Iterator, max int) []Tuple {
	t.Helper()
	if err := it.Open(context.Background()); err != nil {
		t.Fatalf("Open: %v", err)
	}
	var out []Tuple
	for {
		b, err := it.Next(max)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if b.Empty() {
			break
		}
		out = append(out, b.Rows...)
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return out
}

func requireSameRows(t *testing.T, label string, want, got []Tuple) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: row count %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].FullKey() != got[i].FullKey() {
			t.Fatalf("%s: row %d differs:\n got %v\nwant %v", label, i, got[i], want[i])
		}
	}
}

// TestParallelHashJoinMatchesSerial pins the determinism rule: the
// parallel hash join's output is identical in content and order to the
// serial HashJoinIter across seeds, key shapes, build sides, skew,
// residuals and worker counts.
func TestParallelHashJoinMatchesSerial(t *testing.T) {
	keyShapes := []struct {
		name string
		keys []string
	}{
		{"single-string", []string{"sk"}},
		{"single-number", []string{"nk"}},
		{"multi", []string{"sk", "nk"}},
	}
	for seed := int64(0); seed < 6; seed++ {
		for _, ks := range keyShapes {
			for _, buildLeft := range []bool{false, true} {
				for _, par := range []int{1, 2, 3, 8} {
					rng := rand.New(rand.NewSource(seed))
					left := randomKeyedRel(rng, "l", 200+rng.Intn(200), 20, seed%2 == 0)
					right := randomKeyedRel(rng, "r", 150+rng.Intn(200), 20, seed%2 == 1)
					var residual sqlparse.Expr
					if seed%3 == 0 {
						residual = mustExpr("pay < 300")
					}
					serial, err := NewHashJoin(NewScan(left), NewScan(right), ks.keys, ks.keys, residual, buildLeft, nil)
					if err != nil {
						t.Fatal(err)
					}
					want := drainOrdered(t, serial, 64)
					pj, err := NewParallelHashJoin(NewScan(left), NewScan(right), ks.keys, ks.keys, residual, buildLeft, nil, par)
					if err != nil {
						t.Fatal(err)
					}
					got := drainOrdered(t, pj, 64)
					requireSameRows(t,
						fmt.Sprintf("seed=%d shape=%s buildLeft=%v par=%d", seed, ks.name, buildLeft, par),
						want, got)
				}
			}
		}
	}
}

// TestParallelHashJoinRaggedProbe drives the probe side through ragged
// batch shapes so dispatch-order reassembly is exercised across uneven
// chunks.
func TestParallelHashJoinRaggedProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	left := randomKeyedRel(rng, "l", 500, 12, true)
	right := randomKeyedRel(rng, "r", 300, 12, false)
	serial, err := NewHashJoin(newRaggedScan(left, []int{1, 7, 3, 64}), NewScan(right), []string{"sk"}, []string{"sk"}, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := drainOrdered(t, serial, 32)
	pj, err := NewParallelHashJoin(newRaggedScan(left, []int{1, 7, 3, 64}), NewScan(right), []string{"sk"}, []string{"sk"}, nil, false, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := drainOrdered(t, pj, 32)
	requireSameRows(t, "ragged probe", want, got)
}

// errAfterScan fails the stream with a fixed error after serving n rows.
type errAfterScan struct {
	*ScanIter
	n    int
	seen int
	err  error
}

func (e *errAfterScan) Next(max int) (Batch, error) {
	if e.seen >= e.n {
		return Batch{}, e.err
	}
	if rem := e.n - e.seen; max > rem {
		max = rem
	}
	b, err := e.ScanIter.Next(max)
	e.seen += len(b.Rows)
	return b, err
}

// TestParallelHashJoinProbeError pins the flush-before-fail contract
// under the exchange: a probe-side failure surfaces after exactly the
// join output of every batch dispatched before it — the same prefix the
// serial join emits.
func TestParallelHashJoinProbeError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	left := randomKeyedRel(rng, "l", 400, 10, false)
	right := randomKeyedRel(rng, "r", 200, 10, false)
	boom := errors.New("probe wire dropped")
	mk := func(par int) (Iterator, error) {
		probe := &errAfterScan{ScanIter: NewScan(left), n: 250, err: boom}
		if par > 1 {
			return NewParallelHashJoin(probe, NewScan(right), []string{"sk"}, []string{"sk"}, nil, false, nil, par)
		}
		return NewHashJoin(probe, NewScan(right), []string{"sk"}, []string{"sk"}, nil, false, nil)
	}
	drainUntilErr := func(it Iterator) ([]Tuple, error) {
		if err := it.Open(context.Background()); err != nil {
			return nil, err
		}
		defer it.Close()
		var out []Tuple
		for {
			b, err := it.Next(DefaultBatchSize)
			if err != nil {
				return out, err
			}
			if b.Empty() {
				return out, nil
			}
			out = append(out, b.Rows...)
		}
	}
	serial, err := mk(1)
	if err != nil {
		t.Fatal(err)
	}
	want, werr := drainUntilErr(serial)
	if !errors.Is(werr, boom) {
		t.Fatalf("serial error = %v, want %v", werr, boom)
	}
	pj, err := mk(4)
	if err != nil {
		t.Fatal(err)
	}
	got, gerr := drainUntilErr(pj)
	if !errors.Is(gerr, boom) {
		t.Fatalf("parallel error = %v, want %v", gerr, boom)
	}
	requireSameRows(t, "prefix before probe error", want, got)
}

// TestParallelHashJoinCloseMidStream closes the exchange while workers
// are mid-flight: Close must cancel, join every goroutine and release
// the probe child without deadlocking (the race job runs this).
func TestParallelHashJoinCloseMidStream(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	left := randomKeyedRel(rng, "l", 5000, 8, true)
	right := randomKeyedRel(rng, "r", 2000, 8, false)
	for _, pulls := range []int{0, 1, 5} {
		pj, err := NewParallelHashJoin(NewScan(left), NewScan(right), []string{"sk"}, []string{"sk"}, nil, false, nil, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := pj.Open(context.Background()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < pulls; i++ {
			if _, err := pj.Next(16); err != nil {
				t.Fatal(err)
			}
		}
		if err := pj.Close(); err != nil {
			t.Fatalf("Close after %d pulls: %v", pulls, err)
		}
		// Idempotent double Close.
		if err := pj.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	}
}

// TestParallelSortMatchesSerial pins the merge exchange: chunk sort +
// k-way merge reproduces the one-worker sort byte for byte, including tie
// order, Desc keys, NULL and NaN keys. The cores are called with an exact
// worker count (the rows-per-worker floor lives in SortIter.Open), and
// every input is checked to hold NaN keys and at least par rows, so the
// exchange form is what runs — there is no serial fallback for NaN.
func TestParallelSortMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rel := randomKeyedRel(rng, "s", 100+rng.Intn(700), 9, seed%2 == 0)
		nans := 0
		for _, row := range rel.Tuples {
			if row[1].N != row[1].N {
				nans++
			}
		}
		if nans == 0 {
			t.Fatalf("seed=%d: input holds no NaN key", seed)
		}
		keys := []OrderKey{{Expr: mustExpr("nk")}, {Expr: mustExpr("sk"), Desc: seed%2 == 0}}
		want, err := sortRelation(rel, keys, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 5, 8} {
			got, err := sortRelation(rel, keys, par)
			if err != nil {
				t.Fatalf("seed=%d par=%d: %v", seed, par, err)
			}
			requireSameRows(t, fmt.Sprintf("sort seed=%d par=%d", seed, par), want.Tuples, got.Tuples)
		}
	}
}

// TestParallelIterHooks runs the SortIter.Par path end to end through
// the iterator contract, over an input large enough for the
// rows-per-worker floor to let the exchange form run.
func TestParallelIterHooks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rel := randomKeyedRel(rng, "s", 4*minRowsPerWorker+400, 6, false) // above the floor at Par = 4

	ser := NewSort(NewScan(rel), []OrderKey{{Expr: mustExpr("sk")}}, nil)
	want := drainOrdered(t, ser, 32)
	par := NewSort(NewScan(rel), []OrderKey{{Expr: mustExpr("sk")}}, nil)
	par.Par = 4
	requireSameRows(t, "SortIter.Par", want, drainOrdered(t, par, 32))
}

// TestParallelProbersShareOneTable pins the read-only contract a shared
// build rests on: one frozen BuildTable probed at once by several serial
// and exchange joins (each with private encoders over the table's pool)
// gives every one of them the private-build answer. Meaningful under
// -race; the multi-column key shape is the one that goes through the
// pool.
func TestParallelProbersShareOneTable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	left := randomKeyedRel(rng, "l", 900, 25, false)
	right := randomKeyedRel(rng, "r", 700, 25, true)
	keys := []string{"sk", "nk"}
	priv, err := NewHashJoin(NewScan(left), NewScan(right), keys, keys, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := drainOrdered(t, priv, 64)
	tbl := buildHJTable(right.Tuples, []int{0, 1})
	if got, floor := tbl.ApproxBytes(), right.ApproxBytes(); got < floor/2 {
		t.Errorf("table estimate %d B is under half its rows' %d B: overheads or rows are not counted", got, floor)
	}
	share := func(context.Context, func() (*BuildTable, error)) (*BuildTable, error) { return tbl, nil }

	const probers = 6
	got := make([][]Tuple, probers)
	errs := make([]error, probers)
	var wg sync.WaitGroup
	for i := 0; i < probers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var it Iterator
			if i%2 == 0 {
				hj, err := NewHashJoin(NewScan(left), NewScan(right), keys, keys, nil, false, nil)
				if errs[i] = err; err != nil {
					return
				}
				hj.Shared, it = share, hj
			} else {
				pj, err := NewParallelHashJoin(NewScan(left), NewScan(right), keys, keys, nil, false, nil, 3)
				if errs[i] = err; err != nil {
					return
				}
				pj.Shared, it = share, pj
			}
			rel, err := Collect(context.Background(), it, "")
			if errs[i] = err; err == nil {
				got[i] = rel.Tuples
			}
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("prober %d: %v", i, errs[i])
		}
		requireSameRows(t, fmt.Sprintf("prober %d", i), want, got[i])
	}
}
