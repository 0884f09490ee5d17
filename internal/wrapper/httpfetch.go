package wrapper

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// HTTPFetcher fetches pages from a live HTTP server, making the Web
// wrapper operate exactly as the prototype's did against real Internet
// sites. URLs in wrapping specs are site-relative; BaseURL anchors them.
type HTTPFetcher struct {
	BaseURL string
	// Client defaults to a client with DefaultHTTPTimeout.
	Client *http.Client
	// MaxBodyBytes bounds one page read; zero means DefaultMaxBodyBytes.
	MaxBodyBytes int64
}

// DefaultHTTPTimeout bounds one page fetch.
const DefaultHTTPTimeout = 15 * time.Second

// DefaultMaxBodyBytes bounds one page body (a wrapper never needs more
// than a page's worth of HTML; a runaway response should not exhaust
// memory).
const DefaultMaxBodyBytes = 4 << 20

// NewHTTPFetcher builds a fetcher for a base URL.
func NewHTTPFetcher(baseURL string) *HTTPFetcher {
	return &HTTPFetcher{BaseURL: strings.TrimRight(baseURL, "/")}
}

// defaultHTTPClient backs every fetcher whose Client is nil. One shared
// client means one shared connection pool: consecutive page fetches
// against the same site reuse the keep-alive connection instead of
// re-dialing per page (a per-call client would discard its pool each
// time, and a crawl fetches many pages).
var defaultHTTPClient = &http.Client{Timeout: DefaultHTTPTimeout}

// Get implements Fetcher through GetBody: the request carries ctx, so
// canceling the query aborts the page fetch at the socket.
func (h *HTTPFetcher) Get(ctx context.Context, url string) (string, error) {
	client := h.Client
	if client == nil {
		client = defaultHTTPClient
	}
	if strings.HasPrefix(url, "/") {
		url = h.BaseURL + url
	}
	limit := h.MaxBodyBytes
	if limit == 0 {
		limit = DefaultMaxBodyBytes
	}
	body, err := GetBody(ctx, client, url, limit)
	return string(body), err
}

// GetBody performs one GET and returns at most limit bytes of its 200
// body. Failures are classified for the engine's retry machinery:
// transport and body-read errors as transient (unless the query's own
// context died — then the source did not fail, and no class is
// attached), non-200 statuses through ClassifyHTTPStatus (5xx/408
// transient, 429 rate-limited honoring Retry-After, other permanent),
// their message carrying the first 200 bytes of the body.
func GetBody(ctx context.Context, client *http.Client, url string, limit int64) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, fmt.Errorf("wrapper: GET %s: %w", url, err)
	}
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("wrapper: GET %s: %w", url, err)
		}
		return nil, Transient(fmt.Errorf("wrapper: GET %s: %w", url, err))
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 200)) // not the whole page
		cause := fmt.Errorf("wrapper: GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(snippet)))
		return nil, ClassifyHTTPStatus(resp.StatusCode, resp.Header.Get("Retry-After"), cause)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("wrapper: reading %s: %w", url, err)
		}
		return nil, Transient(fmt.Errorf("wrapper: reading %s: %w", url, err))
	}
	return body, nil
}
