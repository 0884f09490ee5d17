package coin_test

// Tests for the coin-layer query sessions: context cancellation and
// deadlines, the max-rows governor, and incremental row streams that
// stop source transfer early.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/coin"
	"repro/internal/relalg"
	"repro/internal/store"
	"repro/internal/wrapper"
	"repro/internal/wrapper/wrappertest"
)

// bigNaiveSystem wires a System with one ungoverned relational source of
// n sequential rows, reachable through naive (un-mediated) queries.
func bigNaiveSystem(t *testing.T, n int) *coin.System {
	t.Helper()
	sys := coin.New(coin.NewModel())
	db := store.NewDB("bigsrc")
	tab := db.MustCreateTable("nums", relalg.NewSchema(
		relalg.Column{Name: "n", Type: relalg.KindNumber},
	))
	for i := 0; i < n; i++ {
		tab.MustInsert(relalg.NumV(float64(i)))
	}
	if err := sys.AddRelationalSource(db, nil); err != nil {
		t.Fatal(err)
	}
	return sys
}

// collect runs sql through Run and collects the answer.
func collect(ctx context.Context, sys *coin.System, sql, receiver string, naive bool, opts coin.QueryOptions) (*coin.Relation, error) {
	rs, err := sys.Run(ctx, sql, receiver, naive, opts)
	if err != nil {
		return nil, err
	}
	return rs.Collect()
}

func TestQueryCtxCanceled(t *testing.T) {
	sys := coin.Figure2System()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := collect(ctx, sys, coin.PaperQ1, "c2", false, coin.QueryOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestQueryCtxDeadlineExceeded(t *testing.T) {
	sys := coin.Figure2System()
	_, err := collect(context.Background(), sys, coin.PaperQ1, "c2", false,
		coin.QueryOptions{Timeout: time.Nanosecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestMaxRowsTruncatesMediatedQuery(t *testing.T) {
	sys := coin.Figure2System()
	full, err := sys.Query("SELECT r2.cname FROM r2", "c2")
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() < 2 {
		t.Fatalf("fixture r2 has %d rows; need >= 2", full.Len())
	}
	capped, err := collect(context.Background(), sys, "SELECT r2.cname FROM r2", "c2", false,
		coin.QueryOptions{MaxRows: 1})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Len() != 1 {
		t.Fatalf("MaxRows=1 returned %d rows", capped.Len())
	}
}

func TestMaxTuplesGovernorAtCoinLayer(t *testing.T) {
	sys := bigNaiveSystem(t, 1000)
	_, err := collect(context.Background(), sys, "SELECT nums.n FROM nums", "", true,
		coin.QueryOptions{MaxTuples: 100})
	if err == nil {
		t.Fatal("query over the tuple budget succeeded")
	}
}

// TestRowStreamLimitStopsTransfer is the coin-layer acceptance check:
// streaming a LIMIT query over a 50k-row source delivers the rows without
// materializing the rest — the source transfers exactly LIMIT tuples.
func TestRowStreamLimitStopsTransfer(t *testing.T) {
	sys := bigNaiveSystem(t, 50000)
	rs, err := sys.Run(context.Background(),
		"SELECT nums.n FROM nums LIMIT 5", "", true, coin.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	rows := 0
	for {
		_, ok, err := rs.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rows++
	}
	if rows != 5 {
		t.Fatalf("streamed %d rows, want 5", rows)
	}
	// Per-scan transfer counts flush to ExecStats at stream close.
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	if st := sys.Executor().Stats(); st.TuplesTransferred != 5 {
		t.Errorf("TuplesTransferred = %d, want exactly 5 (source holds 50000)", st.TuplesTransferred)
	}
}

func TestRowStreamMediated(t *testing.T) {
	sys := coin.Figure2System()
	rs, err := sys.Run(context.Background(), coin.PaperQ1, "c2", false, coin.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if rs.Mediation() == nil || len(rs.Mediation().Branches) != 3 {
		t.Fatalf("stream mediation = %+v", rs.Mediation())
	}
	var rows []coin.Tuple
	for {
		tp, ok, err := rs.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rows = append(rows, tp)
	}
	if len(rows) != 1 || rows[0][0].S != "NTT" || rows[0][1].N != 9600000 {
		t.Fatalf("streamed rows = %v", rows)
	}
	// Close is idempotent and Next after Close reports exhaustion.
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := rs.Next(); ok || err != nil {
		t.Fatalf("Next after Close: ok=%v err=%v", ok, err)
	}
}

// TestRowStreamCloseCancelsSession: closing a stream before exhaustion
// cancels the session, so a slow source blocked mid-transfer is released.
func TestRowStreamCloseCancelsSession(t *testing.T) {
	sys := coin.New(coin.NewModel())
	db := store.NewDB("slow")
	tab := db.MustCreateTable("nums", relalg.NewSchema(
		relalg.Column{Name: "n", Type: relalg.KindNumber},
	))
	for i := 0; i < 100; i++ {
		tab.MustInsert(relalg.NumV(float64(i)))
	}
	gw := wrappertest.NewGate(wrapper.NewRelational(db))
	sys.Catalog.MustAddSource(gw)

	rs, err := sys.Run(context.Background(),
		"SELECT nums.n FROM nums", "", true, coin.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Allow two rows through the gate, then cancel with the stream
	// blocked offering the third; the consuming goroutine then closes.
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 2; i++ {
			if _, ok, err := rs.Next(); !ok || err != nil {
				done <- err
				rs.Close()
				return
			}
		}
		_, _, err := rs.Next() // blocks until Cancel aborts the session
		rs.Close()
		done <- err
	}()
	gw.Allow(2)
	<-gw.Emitted // third tuple offered; nobody will allow it
	rs.Cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("blocked Next returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Cancel did not release the blocked source stream")
	}
}

// TestMaxConcurrentPerSourceAtCoinLayer: the per-source concurrency cap
// is accepted through QueryOptions and a capped query still returns the
// paper's answer (the admission bound itself is pinned at the planner
// layer).
func TestMaxConcurrentPerSourceAtCoinLayer(t *testing.T) {
	sys := coin.Figure2System()
	rows, err := collect(context.Background(), sys, coin.PaperQ1, "c2", false,
		coin.QueryOptions{MaxConcurrentPerSource: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || rows.Tuples[0][0].S != "NTT" {
		t.Errorf("capped answer = %s", rows)
	}
}

// downFetcher fails every page fetch with a transient source fault: the
// currency site is unreachable.
type downFetcher struct{}

func (downFetcher) Get(ctx context.Context, url string) (string, error) {
	return "", wrapper.Transient(errors.New("currency site unreachable"))
}

// TestPartialResultsQuery: with the currency site down, the paper query
// fails by default but degrades under QueryOptions.PartialResults — the
// conversion branches are dropped with warnings naming currencyweb.
func TestPartialResultsQuery(t *testing.T) {
	sys := coin.Figure2SystemWith(downFetcher{})

	if _, err := collect(context.Background(), sys, coin.PaperQ1, "c2", false,
		coin.QueryOptions{}); err == nil || !strings.Contains(err.Error(), "currencyweb") {
		t.Fatalf("fail-fast err = %v, want failure naming currencyweb", err)
	}

	med, err := sys.Mediate(coin.PaperQ1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	rows, warns, err := sys.ExecuteWarnCtx(context.Background(), med,
		coin.QueryOptions{PartialResults: true})
	if err != nil {
		t.Fatal(err)
	}
	// The NTT answer needs the JPY conversion, so the partial answer
	// loses it — the warnings are what tell the receiver why.
	if rows.Len() != 0 {
		t.Errorf("partial rows = %s, want none without the currency source", rows)
	}
	if len(warns) == 0 {
		t.Fatal("partial answer carried no warnings")
	}
	for _, w := range warns {
		if w.Source != "currencyweb" || w.Branch == 0 || w.Message == "" {
			t.Errorf("warning %+v, want branch-scoped currencyweb attribution", w)
		}
	}
}

// TestPartialResultsRowStream: the streaming path surfaces the same
// warnings once the stream is drained.
func TestPartialResultsRowStream(t *testing.T) {
	sys := coin.Figure2SystemWith(downFetcher{})
	rs, err := sys.Run(context.Background(), coin.PaperQ1, "c2", false,
		coin.QueryOptions{PartialResults: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	for {
		_, ok, err := rs.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	warns := rs.Warnings()
	if len(warns) == 0 {
		t.Fatal("drained stream carried no warnings")
	}
	for _, w := range warns {
		if w.Source != "currencyweb" {
			t.Errorf("warning %+v does not name currencyweb", w)
		}
	}
}

// TestPartialResultsExplainAnalyze: EXPLAIN ANALYZE marks dropped
// branches instead of failing.
func TestPartialResultsExplainAnalyze(t *testing.T) {
	sys := coin.Figure2SystemWith(downFetcher{})
	if _, err := sys.Plan(context.Background(), coin.PaperQ1, "c2", true,
		coin.QueryOptions{}); err == nil {
		t.Fatal("fail-fast EXPLAIN ANALYZE succeeded against a dead source")
	}
	out, err := sys.Plan(context.Background(), coin.PaperQ1, "c2", true,
		coin.QueryOptions{PartialResults: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "branch dropped; partial results") {
		t.Errorf("EXPLAIN ANALYZE output lacks the degraded-branch marker:\n%s", out)
	}
}
