package restsrc

// The fixture half of the REST backend: an http.Handler speaking the
// wrapper's wire protocol over a store.DB. Golden-harness and unit tests
// mount it on httptest servers; its fault scripting returns genuine 429
// and 5xx responses (with Retry-After headers) over real sockets, so the
// engine's retry, circuit-breaker and partial-answer machinery is
// exercised by an actual HTTP backend rather than an in-process stub.
//
// Protocol:
//
//	GET /schema
//	  -> {"relations": {"quotes": {"columns": ["cname:str", ...],
//	      "rows": 6, "require": ["cname"], "distinct": {"cname": 6}}}}
//	GET /query?rel=R&page=K&filters=<JSON array>
//	  -> {"rows": [[...], ...], "next": K+1}       ("next" absent on last page)
//
// A NaN or an infinity, which JSON numbers cannot carry, is spelled as
// its strconv string ("NaN", "+Inf", "-Inf") in rows and filter values.
//
// Filters arrive as [{"col": "c", "op": "=", "vals": [{"k": K, "v": v}]}]
// (one value, or the IN list), each tagged with its relalg.Kind so a text
// "30" stays a text against a number column, as in the engine. The server
// evaluates them with the same shared Matcher every in-process wrapper
// uses, and enforces required bindings with a 400 — a permanent fault
// class — when a query arrives unbound.

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/relalg"
	"repro/internal/store"
	"repro/internal/wrapper"
)

// DefaultPageSize is the server's page width when none is configured.
const DefaultPageSize = 5

// Server serves a store.DB over the REST wire protocol.
type Server struct {
	db *store.DB
	// PageSize is the number of rows per /query page; zero means
	// DefaultPageSize.
	PageSize int
	// Require maps relation name to columns that every query must bind,
	// mirroring the paper's capability records for form-bound sources.
	Require map[string][]string

	mu             sync.Mutex
	hits           int
	failLeft       int
	failStatus     int
	failRetryAfter string
}

// NewServer wraps db.
func NewServer(db *store.DB) *Server {
	return &Server{db: db, PageSize: DefaultPageSize}
}

// FailNext scripts the next n /query requests to fail with the given
// HTTP status; retryAfter, when non-empty, is sent as a Retry-After
// header. Scheduled failures still count as hits.
func (s *Server) FailNext(n, status int, retryAfter string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failLeft = n
	s.failStatus = status
	s.failRetryAfter = retryAfter
}

// Hits returns the number of /query requests served (including scripted
// failures).
func (s *Server) Hits() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits
}

// schemaDoc is the /schema response body.
type schemaDoc struct {
	Relations map[string]relationDoc `json:"relations"`
}

// relationDoc describes one relation in the /schema response.
type relationDoc struct {
	Columns  []string       `json:"columns"`
	Rows     int            `json:"rows"`
	Require  []string       `json:"require,omitempty"`
	Distinct map[string]int `json:"distinct,omitempty"`
}

// queryDoc is the /query response body.
type queryDoc struct {
	Rows [][]any `json:"rows"`
	Next *int    `json:"next,omitempty"`
}

// wireFilter is one filter term on the wire.
type wireFilter struct {
	Col  string      `json:"col"`
	Op   string      `json:"op"`
	Vals []wireValue `json:"vals"`
}

// wireValue is a filter value on the wire: its kind and its wireScalar.
type wireValue struct {
	K relalg.Kind `json:"k"`
	V any         `json:"v"`
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/schema":
		s.serveSchema(w)
	case "/query":
		s.serveQuery(w, r)
	default:
		http.Error(w, "no such endpoint", http.StatusNotFound)
	}
}

func (s *Server) serveSchema(w http.ResponseWriter) {
	doc := schemaDoc{Relations: map[string]relationDoc{}}
	for _, name := range s.db.TableNames() {
		t, err := s.db.Table(name)
		if err != nil {
			continue
		}
		st := t.Stats()
		doc.Relations[name] = relationDoc{
			Columns:  store.FormatHeader(t.Schema),
			Rows:     st.Rows,
			Require:  s.Require[name],
			Distinct: st.Distinct,
		}
	}
	writeJSON(w, doc)
}

func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.hits++
	if s.failLeft > 0 {
		s.failLeft--
		status, after := s.failStatus, s.failRetryAfter
		s.mu.Unlock()
		if after != "" {
			w.Header().Set("Retry-After", after)
		}
		http.Error(w, fmt.Sprintf("scripted fault %d", status), status)
		return
	}
	s.mu.Unlock()

	rel := r.URL.Query().Get("rel")
	t, err := s.db.Table(rel)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	page := 0
	if p := r.URL.Query().Get("page"); p != "" {
		page, err = strconv.Atoi(p)
		if err != nil || page < 0 {
			http.Error(w, "bad page", http.StatusBadRequest)
			return
		}
	}
	filters, err := decodeFilters(r.URL.Query().Get("filters"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	caps := wrapper.Capabilities{RequiredBindings: s.Require[rel]}
	if _, err := wrapper.CheckRequiredBindings(caps, wrapper.SourceQuery{Relation: rel, Filters: filters}); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	match, err := wrapper.Matcher(t.Schema, filters)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var kept []relalg.Tuple
	for _, tup := range t.Scan().Tuples {
		ok, err := match(tup)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if ok {
			kept = append(kept, tup)
		}
	}
	size := s.PageSize
	if size <= 0 {
		size = DefaultPageSize
	}
	start := page * size
	end := start + size
	if start > len(kept) {
		start = len(kept)
	}
	if end > len(kept) {
		end = len(kept)
	}
	doc := queryDoc{Rows: make([][]any, 0, end-start)}
	for _, tup := range kept[start:end] {
		row := make([]any, len(tup))
		for i, v := range tup {
			row[i] = wireScalar(v)
		}
		doc.Rows = append(doc.Rows, row)
	}
	if end < len(kept) {
		next := page + 1
		doc.Next = &next
	}
	writeJSON(w, doc)
}

func writeJSON(w http.ResponseWriter, doc any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		// The response is already committed; nothing useful remains.
		return
	}
}

// decodeFilters parses the wire filter array into wrapper.Filters.
func decodeFilters(raw string) ([]wrapper.Filter, error) {
	if raw == "" {
		return nil, nil
	}
	var wire []wireFilter
	if err := json.Unmarshal([]byte(raw), &wire); err != nil {
		return nil, fmt.Errorf("restsrc: bad filters: %w", err)
	}
	out := make([]wrapper.Filter, 0, len(wire))
	for _, f := range wire {
		wf := wrapper.Filter{Column: f.Col, Op: f.Op}
		for _, x := range f.Vals {
			v, err := wrapper.FromScalar(x.V, x.K)
			if err != nil {
				return nil, fmt.Errorf("restsrc: bad filter on %s: %w", f.Col, err)
			}
			if f.Op == wrapper.OpIn {
				wf.Values = append(wf.Values, v)
			} else {
				wf.Value = v
			}
		}
		out = append(out, wf)
	}
	return out, nil
}

// wireScalar is v's JSON form: wrapper.Scalar, except that a NaN or an
// infinity, which JSON has no number for, travels as its strconv string
// ("NaN", "+Inf", "-Inf"), which wrapper.FromScalar reads back.
func wireScalar(v relalg.Value) any {
	if v.K == relalg.KindNumber && (math.IsNaN(v.N) || math.IsInf(v.N, 0)) {
		return strconv.FormatFloat(v.N, 'g', -1, 64)
	}
	return wrapper.Scalar(v)
}
