// Command coinserver serves the COIN mediation services over HTTP: the
// tunneled query protocol under /api/ (including the NDJSON streaming
// wire path at /api/query/stream) and the HTML Query-By-Example form
// under /qbe, exactly the two receiver-side faces the prototype shipped.
// It hosts the paper's Figure 2 demonstration system.
//
// The server is run-ready for real traffic: read/header/idle timeouts
// bound slow clients, every query session is tied to its request's
// context, and SIGINT/SIGTERM trigger a graceful shutdown that drains
// in-flight sessions (force-closing — and thereby cancelling — any that
// outlive the drain window).
//
// Usage:
//
//	coinserver [-addr :8095] [-shutdown-timeout 10s]
//
// Then visit http://localhost:8095/qbe, or use cmd/coinquery.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/coin"
)

func main() {
	addr := flag.String("addr", ":8095", "listen address")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second,
		"how long a graceful shutdown waits for in-flight queries before force-cancelling them")
	flag.Parse()

	sys := coin.Figure2System()
	fmt.Printf("COIN mediator serving the Figure 2 demonstration system\n")
	fmt.Printf("  relations: %v\n", sys.Relations())
	fmt.Printf("  contexts:  %v\n", sys.Contexts())
	qbeHost := *addr
	if strings.HasPrefix(qbeHost, ":") {
		qbeHost = "localhost" + qbeHost
	}
	fmt.Printf("  QBE form:  http://%s/qbe\n", qbeHost)

	srv := &http.Server{
		Addr:    *addr,
		Handler: sys.Handler(),
		// Bound what slow or stuck clients can hold open. WriteTimeout
		// stays zero: /api/query/stream responses legitimately run long,
		// and the per-request "timeout" governor bounds them instead.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("signal received; draining in-flight sessions (up to %s)", *shutdownTimeout)
		sctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			// Drain window expired: force-close the remaining connections,
			// which cancels their request contexts and thereby aborts the
			// still-running query sessions at the source fetches.
			log.Printf("drain incomplete (%v); force-closing", err)
			if cerr := srv.Close(); cerr != nil && !errors.Is(cerr, http.ErrServerClosed) {
				log.Printf("close: %v", cerr)
			}
		}
		log.Println("server stopped")
	}
}
