//go:build invariants

package relalg

// Tests for the runtime-assertion layer (invariants_on.go). They run only
// under `go test -tags invariants` — the dedicated CI job — and verify
// that each armed contract actually fires: a broken batch consumer trips
// the transient-arena poison, a broken producer or driver trips the
// Checked lifecycle shim, and an inconsistent key table is rejected.

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

func mustPanic(t *testing.T, wantSub string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected a panic containing %q, got none", wantSub)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, wantSub) {
			t.Fatalf("panic = %q, want substring %q", msg, wantSub)
		}
	}()
	fn()
}

func numRelation(name string, n int) *Relation {
	rel := NewRelation(name, NewSchema(Column{Name: name + "_x", Type: KindNumber}))
	for i := 0; i < n; i++ {
		rel.Tuples = append(rel.Tuples, Tuple{NumV(float64(i))})
	}
	return rel
}

// TestPoisonCatchesBrokenBatchConsumer is the runtime twin of the
// batchretain analyzer's testdata/src/batchretain_bad fixture: a consumer
// that buffers raw rows of a transient-marked pipeline across Next calls.
// Statically the analyzer flags the retention; dynamically the recycled
// arena is poisoned, so the first touch of a stolen value panics instead
// of silently computing with overwritten data.
func TestPoisonCatchesBrokenBatchConsumer(t *testing.T) {
	outer := numRelation("a", 8)
	inner := NewRelation("b", NewSchema(Column{Name: "y", Type: KindNumber}))
	inner.Tuples = append(inner.Tuples, Tuple{NumV(100)})

	it := NewNestedLoop(NewScan(outer), inner, nil)
	MarkTransient(it)
	if err := it.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer it.Close()

	// The deliberately-broken consumer: retains b.Rows' tuples uncopied.
	b, err := it.Next(4)
	if err != nil || b.Empty() {
		t.Fatalf("first batch: %v (empty=%v)", err, b.Empty())
	}
	stolen := append([]Tuple(nil), b.Rows...) // copies headers, not values
	// Drain on: each pull recycles the arena under the stolen rows. While
	// a following batch happens to refill the very same slots the
	// corruption is silent (that is the production failure mode); the
	// recycle on the exhausting pull leaves the poison in place, so the
	// stolen rows are caught deterministically.
	for {
		nb, err := it.Next(4)
		if err != nil {
			t.Fatal(err)
		}
		if nb.Empty() {
			break
		}
	}

	mustPanic(t, "recycled transient batch", func() {
		_ = stolen[0][0].Equal(NumV(0))
	})
}

// TestPoisonSparesCopiedRows proves the sanctioned idiom survives: a
// consumer that copies rows before buffering keeps valid values across
// arena recycling.
func TestPoisonSparesCopiedRows(t *testing.T) {
	outer := numRelation("a", 8)
	inner := NewRelation("b", NewSchema(Column{Name: "y", Type: KindNumber}))
	inner.Tuples = append(inner.Tuples, Tuple{NumV(100)})

	it := NewNestedLoop(NewScan(outer), inner, nil)
	MarkTransient(it)
	if err := it.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer it.Close()

	b, err := it.Next(4)
	if err != nil || b.Empty() {
		t.Fatalf("first batch: %v (empty=%v)", err, b.Empty())
	}
	var kept []Tuple
	for _, row := range b.Rows {
		kept = append(kept, append(Tuple(nil), row...))
	}
	for {
		nb, err := it.Next(4)
		if err != nil {
			t.Fatal(err)
		}
		if nb.Empty() {
			break
		}
	}
	if !kept[0][0].Equal(NumV(0)) {
		t.Fatalf("copied row corrupted: %v", kept[0])
	}
}

func TestCheckedLifecycleAssertions(t *testing.T) {
	rel := numRelation("r", 2)

	mustPanic(t, "Next before a successful Open", func() {
		Checked(NewScan(rel)).Next(1)
	})

	it := Checked(NewScan(rel))
	if err := it.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "Open called twice", func() { it.Open(context.Background()) })
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "Next after Close", func() { it.Next(1) })
	mustPanic(t, "Close called twice", func() { it.Close() })
}

// oversizedIter violates the batch bound: Next(max) returns max+1 rows.
type oversizedIter struct{ schema Schema }

func (o *oversizedIter) Schema() Schema               { return o.schema }
func (o *oversizedIter) Open(_ context.Context) error { return nil }
func (o *oversizedIter) Close() error                 { return nil }
func (o *oversizedIter) Next(max int) (Batch, error) {
	rows := make([]Tuple, max+1)
	for i := range rows {
		rows[i] = Tuple{NumV(1)}
	}
	return Batch{Rows: rows}, nil
}

// zombieIter violates exhaustion stability: empty batch, then rows again.
type zombieIter struct {
	schema Schema
	calls  int
}

func (z *zombieIter) Schema() Schema               { return z.schema }
func (z *zombieIter) Open(_ context.Context) error { return nil }
func (z *zombieIter) Close() error                 { return nil }
func (z *zombieIter) Next(int) (Batch, error) {
	z.calls++
	if z.calls == 1 {
		return Batch{}, nil
	}
	return Batch{Rows: []Tuple{{NumV(1)}}}, nil
}

// raggedIter violates schema arity: two columns declared, one delivered.
type raggedIter struct{ done bool }

func (r *raggedIter) Schema() Schema {
	return NewSchema(Column{Name: "a", Type: KindNumber}, Column{Name: "b", Type: KindNumber})
}
func (r *raggedIter) Open(_ context.Context) error { return nil }
func (r *raggedIter) Close() error                 { return nil }
func (r *raggedIter) Next(int) (Batch, error) {
	if r.done {
		return Batch{}, nil
	}
	r.done = true
	return Batch{Rows: []Tuple{{NumV(1)}}}, nil
}

func TestCheckedBatchAssertions(t *testing.T) {
	schema := NewSchema(Column{Name: "x", Type: KindNumber})

	over := Checked(&oversizedIter{schema: schema})
	if err := over.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "exceed the requested bound", func() { over.Next(4) })

	zombie := Checked(&zombieIter{schema: schema})
	if err := zombie.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	if b, err := zombie.Next(4); err != nil || !b.Empty() {
		t.Fatalf("first pull should exhaust: %v %v", b, err)
	}
	mustPanic(t, "non-empty batch after exhaustion", func() { zombie.Next(4) })

	ragged := Checked(&raggedIter{})
	if err := ragged.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "row arity", func() { ragged.Next(4) })
}

func TestKeyTableCheck(t *testing.T) {
	fill := func() *keyTable {
		var kt keyTable
		for i := range 20 {
			kt.insert(appendKey(nil, NumV(float64(i))))
		}
		checkTable(&kt) // consistent: must not panic
		return &kt
	}
	kt := fill()
	kt.ents[3].hash ^= 1
	mustPanic(t, "stale", func() { checkTable(kt) })
	kt = fill()
	for i, s := range kt.slots {
		if s == 5 {
			kt.slots[i] = 0
		}
	}
	mustPanic(t, "slots in use", func() { checkTable(kt) })
	kt = fill()
	kt.ents[2], kt.ents[3] = kt.ents[3], kt.ents[2]
	mustPanic(t, "before id", func() { checkTable(kt) })
}

func TestInvariantsEnabledReportsTag(t *testing.T) {
	if !InvariantsEnabled {
		t.Fatal("InvariantsEnabled must be true under -tags invariants")
	}
}
