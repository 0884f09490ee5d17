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
// heavy skew toward one key — the adversarial shapes for keyed
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

// TestParallelIterHooks: NewParallelHashJoin, which bench/ still calls
// with a worker count, is the serial hash join — on either build side,
// at any worker count, it streams NewHashJoin's rows in NewHashJoin's
// order over NULL, NaN and skewed keys.
func TestParallelIterHooks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	left := randomKeyedRel(rng, "l", 1200, 30, true)
	right := randomKeyedRel(rng, "r", 500, 30, false)
	keys := []string{"sk", "nk"}
	for _, buildLeft := range []bool{false, true} {
		ser, err := NewHashJoin(NewScan(left), NewScan(right), keys, keys, nil, buildLeft, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := drainOrdered(t, ser, 64)
		if len(want) == 0 {
			t.Fatal("join fixture matches no rows")
		}
		for _, par := range []int{0, 1, 4, 8} {
			hj, err := NewParallelHashJoin(NewScan(left), NewScan(right), keys, keys, nil, buildLeft, nil, par)
			if err != nil {
				t.Fatal(err)
			}
			requireSameRows(t, fmt.Sprintf("buildLeft=%v par=%d", buildLeft, par), want, drainOrdered(t, hj, 64))
		}
	}
}
