package server_test

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/coin"
	"repro/internal/client"
)

// TestConcurrentReceivers hammers the server with parallel mediated and
// naive queries, as the prototype's multi-user demonstrations did. Run
// with -race to validate the locking of the mediator's program cache and
// the executor's statistics.
func TestConcurrentReceivers(t *testing.T) {
	sys := coin.Figure2System()
	ts := httptest.NewServer(sys.Handler())
	defer ts.Close()

	const workers = 8
	const perWorker = 10
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := client.Open(ts.URL)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < perWorker; i++ {
				if w%2 == 0 {
					res, err := conn.QueryCtx(context.Background(), coin.PaperQ1, "c2", client.Options{})
					if err != nil {
						errs <- err
						return
					}
					if len(res.Rows) != 1 || res.Rows[0][0] != "NTT" {
						t.Errorf("worker %d: rows = %v", w, res.Rows)
						return
					}
				} else {
					res, err := conn.QueryNaiveCtx(context.Background(), coin.PaperQ1, client.Options{})
					if err != nil {
						errs <- err
						return
					}
					if len(res.Rows) != 0 {
						t.Errorf("worker %d: naive rows = %v", w, res.Rows)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
