package client_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/coin"
	"repro/internal/client"
	"repro/internal/fixture"
	"repro/internal/relalg"
	"repro/internal/store"
)

// scaledSystem is the paper's federation over n generated companies, with
// the rates as a relational table: the shape of the benchmark's
// scale_stream workload, at a size a test can afford.
func scaledSystem(t *testing.T, n int) *coin.System {
	t.Helper()
	w := fixture.NewScaledWorkload(n, 42)
	sys := coin.New(fixture.Model())
	for _, c := range []*coin.Context{fixture.ContextC1(), fixture.ContextC2()} {
		if err := sys.AddContext(c); err != nil {
			t.Fatal(err)
		}
	}
	add := func(src string, rel *relalg.Relation, context, column string) {
		db := store.NewDB(src)
		tab := db.MustCreateTable(rel.Name, rel.Schema)
		for _, row := range rel.Tuples {
			tab.MustInsert(row...)
		}
		var elev map[string]*coin.Elevation
		if context != "" {
			elev = map[string]*coin.Elevation{rel.Name: {Relation: rel.Name, Context: context, Columns: []coin.ElevatedColumn{
				{Column: "cname", SemType: "companyName"},
				{Column: column, SemType: "companyFinancials"},
			}}}
		}
		if err := sys.AddRelationalSource(db, elev); err != nil {
			t.Fatal(err)
		}
	}
	add("source1", w.R1, "c1", "revenue")
	add("source2", w.R2, "c2", "expenses")
	add("currencyweb", w.R3, "", "")
	if err := sys.AddAncillary("rate", "r3"); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestStreamStatsPublishedBeforeTrailer: a streamed response is complete
// only once its session's statistics are in the executor's StatsStore, so
// a receiver that sends its next request as soon as it has read the stats
// trailer gets a plan made with them. Plans (and with them the number of
// source queries) depend on the learned statistics, so a fixed request sequence replayed on fresh
// systems must always cost the same number of source queries.
func TestStreamStatsPublishedBeforeTrailer(t *testing.T) {
	const n, replays = 5000, 100
	ks := []int{0, 400000, 100000, 800000, 0, 200000}
	counts := map[int]int{}
	for r := 0; r < replays; r++ {
		sys := scaledSystem(t, n)
		ts := httptest.NewServer(sys.Handler())
		conn, err := client.Open(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range ks {
			sql := fmt.Sprintf("%s AND rl.revenue > %d", scaleJoin, k)
			cur, err := conn.QueryStream(context.Background(), sql, "c2", false, client.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for cur.Next() {
			}
			if err := cur.Err(); err != nil {
				t.Fatal(err)
			}
			cur.Close()
		}
		ts.Close()
		counts[sys.Executor().Stats().SourceQueries]++
	}
	if len(counts) != 1 {
		t.Errorf("source queries per replayed sequence (count: replays) = %v, want a single count", counts)
	}
}

// scaleJoin is the paper's Q1 with the receiver aliasing r1.
const scaleJoin = "SELECT rl.cname, rl.revenue FROM r1 rl, r2 WHERE rl.cname = r2.cname AND rl.revenue > r2.expenses"
