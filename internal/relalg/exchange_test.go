package relalg

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
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
// build rests on: one frozen BuildTable probed at once by several joins
// on their own goroutines (each with private encoders over the table's
// pool) gives every one of them the private-build answer. Meaningful under
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
			hj, err := NewHashJoin(NewScan(left), NewScan(right), keys, keys, nil, false, nil)
			if errs[i] = err; err != nil {
				return
			}
			hj.Shared = share
			rel, err := Collect(context.Background(), hj, "")
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
