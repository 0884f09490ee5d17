package wrapper

import (
	"context"
	"testing"

	"repro/internal/relalg"
)

// TestCursorSizesBlockBufferOnce: the cursor's block buffer is sized by
// the first raw block, so draining a filtered 10,000-row scan allocates
// it once instead of climbing append's ladder per source query, and a
// 4-row source reserves 4 slots, not a whole batch.
func TestCursorSizesBlockBufferOnce(t *testing.T) {
	for _, n := range []int{10000, 4} {
		rel := relalg.NewRelation("t", relalg.NewSchema(
			relalg.Column{Name: "k", Type: relalg.KindNumber},
			relalg.Column{Name: "tag", Type: relalg.KindString}))
		for i := 0; i < n; i++ {
			rel.MustAdd(relalg.NumV(float64(i)), relalg.StrV([]string{"a", "b"}[i%2]))
		}
		var c *cursor
		rows := 0
		run := func(drain bool) {
			st, err := NewCursor(context.Background(), NewRelationStream(rel),
				[]Filter{{Column: "tag", Op: "=", Value: relalg.StrV("a")}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			c, rows = st.(*cursor), 0
			for drain {
				b, err := c.NextBatch(0)
				if err != nil {
					t.Fatal(err)
				}
				rows += len(b)
				drain = len(b) > 0
			}
			st.Close()
		}
		// The drain's own allocations: those of a drained cursor beyond
		// those of one opened and closed unread.
		if extra := testing.AllocsPerRun(5, func() { run(true) }) - testing.AllocsPerRun(5, func() { run(false) }); extra != 1 {
			t.Errorf("%d rows: draining allocates %.0f times, want once (the block buffer)", n, extra)
		}
		run(true)
		if rows != n/2 {
			t.Errorf("%d rows: %d passed the filter, want %d", n, rows, n/2)
		}
		if want := min(n, relalg.DefaultBatchSize); cap(c.out) != want {
			t.Errorf("%d rows: block buffer holds %d slots, want %d (the first raw block's length)", n, cap(c.out), want)
		}
	}
}
