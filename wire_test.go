package repro_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/coin"
	"repro/internal/client"
	"repro/internal/fixture"
	"repro/internal/relalg"
)

// TestMediatedStreamOverTheWire: the 10,000-company mediated Q1 streamed
// through the HTTP handler, whose tree recycles every row arena between
// batches, equals the collected answer of ExecuteWarnCtx, whose rows are
// durable, as a multiset. Under -tags invariants (make test-invariants)
// batches are 7 rows and a recycled arena is poisoned, so a row the
// handler encoded after its batch was recycled, or a narrowed join that
// lost a column, shows here.
func TestMediatedStreamOverTheWire(t *testing.T) {
	sys := scaledSystem(10000, 42)
	ctx := context.Background()
	med, err := sys.Mediate(fixture.PaperQ1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	rel, _, err := sys.ExecuteWarnCtx(ctx, med, coin.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, r := range rel.Tuples {
		want = append(want, fmt.Sprintf("%v|%v", r[0].S, r[1].N))
	}

	srv := httptest.NewServer(sys.Handler())
	defer srv.Close()
	conn, err := client.Open(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := conn.QueryStream(ctx, fixture.PaperQ1, "c2", false, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var got []string
	for cur.Next() {
		got = append(got, fmt.Sprintf("%v|%v", cur.Row()...))
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	slices.Sort(want)
	slices.Sort(got)
	if len(want) < 2*relalg.DefaultBatchSize || !slices.Equal(got, want) {
		t.Fatalf("streamed %d rows, collected %d; they differ or span under two batches", len(got), len(want))
	}
}
