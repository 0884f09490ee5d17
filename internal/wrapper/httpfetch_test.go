package wrapper

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/web"
)

// TestWebWrapperOverRealHTTP closes the Figure 1 loop on the source side:
// the simulated currency site is served by a real HTTP server and the
// wrapper crawls it through the network stack.
func TestWebWrapperOverRealHTTP(t *testing.T) {
	site := web.NewCurrencySite(web.PaperRates())
	ts := httptest.NewServer(site.Handler())
	defer ts.Close()

	fetcher := NewHTTPFetcher(ts.URL)
	w := NewWeb("currencyweb", fetcher, MustParseSpec(CurrencySpecCrawl))
	rel, err := w.Query(context.Background(), SourceQuery{Relation: "r3"})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 4 {
		t.Fatalf("crawl over HTTP = %s", rel)
	}
}

func TestHTTPFetcherErrors(t *testing.T) {
	site := web.NewCurrencySite(web.PaperRates())
	ts := httptest.NewServer(site.Handler())
	defer ts.Close()

	f := NewHTTPFetcher(ts.URL)
	// The message carries the status and the start of the error body.
	if _, err := f.Get(context.Background(), "/nope"); err == nil ||
		!strings.Contains(err.Error(), "404") || !strings.Contains(err.Error(), "page not found") {
		t.Errorf("404 err = %v", err)
	}
	dead := NewHTTPFetcher("http://127.0.0.1:1")
	if _, err := dead.Get(context.Background(), "/rates"); err == nil {
		t.Error("dead server accepted")
	}
}

// TestHTTPFetcherReusesConnections pins the shared-client fix: two Gets
// through a fetcher with no explicit Client must ride one keep-alive
// connection. (The old code built a fresh http.Client per call, so every
// page fetch of a crawl re-dialed the site.)
func TestHTTPFetcherReusesConnections(t *testing.T) {
	var dials atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	ts.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	f := NewHTTPFetcher(ts.URL)
	for i := 0; i < 2; i++ {
		if _, err := f.Get(context.Background(), "/page"); err != nil {
			t.Fatal(err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("two Gets opened %d connections, want 1 (keep-alive reuse)", n)
	}
}

// TestHTTPFetcherClassifiesFaults checks the fetcher attaches the fault
// taxonomy at the protocol boundary: 5xx transient, 429 rate-limited with
// the server's Retry-After hint, 4xx permanent, refused dial transient.
func TestHTTPFetcherClassifiesFaults(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/busy":
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
		case "/flaky":
			w.WriteHeader(http.StatusBadGateway)
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	defer ts.Close()

	f := NewHTTPFetcher(ts.URL)
	_, err := f.Get(context.Background(), "/flaky")
	if !errors.Is(err, ErrTransient) {
		t.Errorf("502 classified as %v, want transient", err)
	}
	_, err = f.Get(context.Background(), "/busy")
	if !errors.Is(err, ErrRateLimited) {
		t.Errorf("429 classified as %v, want rate-limited", err)
	}
	if d, ok := RetryAfter(err); !ok || d != time.Second {
		t.Errorf("429 Retry-After hint = %v, %v, want 1s", d, ok)
	}
	_, err = f.Get(context.Background(), "/nope")
	if !errors.Is(err, ErrPermanent) {
		t.Errorf("404 classified as %v, want permanent", err)
	}

	dead := NewHTTPFetcher("http://127.0.0.1:1")
	_, err = dead.Get(context.Background(), "/rates")
	if !Retryable(err) {
		t.Errorf("refused dial not retryable: %v", err)
	}

	// A canceled query is not a source fault.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = f.Get(ctx, "/flaky")
	if Retryable(err) || errors.Is(err, ErrTransient) {
		t.Errorf("canceled fetch classified as source fault: %v", err)
	}
}

func TestHTTPFetcherBodyLimit(t *testing.T) {
	site := web.NewSite("big")
	site.AddPage("/x", strings.Repeat("a", 1000))
	ts := httptest.NewServer(site.Handler())
	defer ts.Close()
	f := NewHTTPFetcher(ts.URL)
	f.MaxBodyBytes = 10
	body, err := f.Get(context.Background(), "/x")
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != 10 {
		t.Errorf("body length = %d, want truncation at 10", len(body))
	}
}

// TestHTTPFetcherErrorPageSnippet: a non-200 is classified once a short
// snippet of its body is in, not after the whole error page arrives.
func TestHTTPFetcherErrorPageSnippet(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("overloaded " + strings.Repeat("x", 1000)))
		w.(http.Flusher).Flush()
		<-release // the rest of the page never comes
	}))
	defer ts.Close()
	defer close(release)

	done := make(chan error, 1)
	go func() {
		_, err := NewHTTPFetcher(ts.URL).Get(context.Background(), "/rates")
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrTransient) || !strings.Contains(err.Error(), "overloaded xxx") {
			t.Errorf("503 = %v, want a transient fault carrying the snippet", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fetch waited for the whole error page")
	}
}
