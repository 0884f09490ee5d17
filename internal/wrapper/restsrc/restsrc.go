// Package restsrc wraps a paginated JSON-over-HTTP service as a COIN
// source: the "rate-limited network API" point in the backend matrix.
// The source evaluates pushed filters server-side but offers no IN-lists
// and no projection, advertises required bindings the mediator must feed
// by bind join, and streams results one page per round trip — so every
// page fetch is a chance for the network to fail, and failures surface
// through the shared fault taxonomy (429 with Retry-After as rate-limited,
// 5xx as transient, 4xx as permanent) where the engine's retry and
// circuit-breaker machinery picks them up.
package restsrc

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"repro/internal/relalg"
	"repro/internal/store"
	"repro/internal/wrapper"
)

// DefaultCost models a paginated WAN API: round trips dominate, and each
// extra tuple costs another slice of a page.
var DefaultCost = wrapper.Cost{PerQuery: 80, PerTuple: 0.5, MaxConcurrent: 2}

// The source streams pages and serves statistics from its schema document.
var (
	_ wrapper.Wrapper  = (*Source)(nil)
	_ wrapper.Streamer = (*Source)(nil)
	_ wrapper.Statser  = (*Source)(nil)
)

// Source is the client half: one remote REST service exposed through the
// wrapper protocol. Schema, row counts, required bindings and distinct
// statistics come from the service's /schema document, fetched once at
// dial time.
type Source struct {
	name   string
	base   string
	client *http.Client

	// CostParams may be adjusted before the source is registered.
	CostParams wrapper.Cost

	rels map[string]remoteRelation
}

// remoteRelation is the cached /schema entry for one relation.
type remoteRelation struct {
	schema   relalg.Schema
	rows     int
	require  []string
	distinct map[string]int
}

// DialContext fetches baseURL/schema — the one-time discovery request,
// bounded by ctx — and builds a source named name. client nil means
// http.DefaultClient.
func DialContext(ctx context.Context, name, baseURL string, client *http.Client) (*Source, error) {
	if client == nil {
		client = http.DefaultClient
	}
	s := &Source{
		name:       name,
		base:       strings.TrimRight(baseURL, "/"),
		client:     client,
		CostParams: DefaultCost,
		rels:       map[string]remoteRelation{},
	}
	body, err := wrapper.GetBody(ctx, s.client, s.base+"/schema", wrapper.DefaultMaxBodyBytes)
	if err != nil {
		return nil, err
	}
	var doc schemaDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, wrapper.Permanent(fmt.Errorf("restsrc: source %s: bad schema document: %w", name, err))
	}
	for rel, rd := range doc.Relations {
		schema, err := store.ParseHeader(rd.Columns)
		if err != nil {
			return nil, wrapper.Permanent(fmt.Errorf("restsrc: source %s relation %s: %w", name, rel, err))
		}
		s.rels[rel] = remoteRelation{
			schema:   schema,
			rows:     rd.Rows,
			require:  rd.Require,
			distinct: rd.Distinct,
		}
	}
	return s, nil
}

// Source implements wrapper.Wrapper.
func (s *Source) Source() string { return s.name }

// Relations implements wrapper.Wrapper.
func (s *Source) Relations() []string {
	names := make([]string, 0, len(s.rels))
	for n := range s.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (s *Source) relation(name string) (remoteRelation, error) {
	r, ok := s.rels[name]
	if !ok {
		return remoteRelation{}, fmt.Errorf("restsrc: source %s has no relation %s", s.name, name)
	}
	return r, nil
}

// Schema implements wrapper.Wrapper.
func (s *Source) Schema(relation string) (relalg.Schema, error) {
	r, err := s.relation(relation)
	if err != nil {
		return relalg.Schema{}, err
	}
	return r.schema, nil
}

// Capabilities implements wrapper.Wrapper: the service filters
// server-side but ships whole rows (no projection), takes no IN-lists
// (bind joins degrade to per-value probes), and may require bindings.
func (s *Source) Capabilities(relation string) (wrapper.Capabilities, error) {
	r, err := s.relation(relation)
	if err != nil {
		return wrapper.Capabilities{}, err
	}
	return wrapper.Capabilities{
		Selection:        true,
		RequiredBindings: append([]string(nil), r.require...),
	}, nil
}

// Cost implements wrapper.Wrapper.
func (s *Source) Cost() wrapper.Cost { return s.CostParams }

// EstimateRows implements wrapper.Wrapper from the schema document; the
// document was fetched at Dial time, so no probe leaves the process and
// the context goes unused.
func (s *Source) EstimateRows(_ context.Context, relation string) int {
	r, err := s.relation(relation)
	if err != nil {
		return 0
	}
	return r.rows
}

// DistinctCount implements wrapper.Statser from the schema document's
// statistics block — no extra round trip per probe.
func (s *Source) DistinctCount(_ context.Context, relation, column string) (int, bool) {
	r, err := s.relation(relation)
	if err != nil {
		return 0, false
	}
	n, ok := r.distinct[column]
	return n, ok && n > 0
}

// Query implements wrapper.Wrapper by draining QueryStream.
func (s *Source) Query(ctx context.Context, q wrapper.SourceQuery) (*relalg.Relation, error) {
	st, err := s.QueryStream(ctx, q)
	if err != nil {
		return nil, err
	}
	return wrapper.Drain(q.Relation, st)
}

// QueryStream implements wrapper.Streamer: pages are fetched lazily, one
// GET per page, as the consumer pulls. The filters travel to the service;
// the projection it cannot do is left to the shared cursor, so direct
// callers still get the columns they asked for.
func (s *Source) QueryStream(ctx context.Context, q wrapper.SourceQuery) (wrapper.TupleStream, error) {
	r, err := s.relation(q.Relation)
	if err != nil {
		return nil, err
	}
	caps, err := s.Capabilities(q.Relation)
	if err != nil {
		return nil, err
	}
	if _, err := wrapper.CheckRequiredBindings(caps, q); err != nil {
		return nil, err
	}
	filters, err := encodeFilters(q.Filters)
	if err != nil {
		return nil, fmt.Errorf("restsrc: source %s: %w", s.name, err)
	}
	pages := &pageStream{src: s, ctx: ctx, relation: q.Relation, filters: filters, schema: r.schema}
	st, err := wrapper.NewCursor(ctx, pages, nil, q.Columns)
	if err != nil {
		return nil, fmt.Errorf("restsrc: source %s: %w", s.name, err)
	}
	return st, nil
}

// encodeFilters renders filters in the wire format.
func encodeFilters(filters []wrapper.Filter) (string, error) {
	if len(filters) == 0 {
		return "", nil
	}
	wire := make([]wireFilter, 0, len(filters))
	for _, f := range filters {
		vals := []relalg.Value{f.Value}
		if f.Op == wrapper.OpIn {
			if len(f.Values) == 0 {
				return "", fmt.Errorf("empty IN list on %s", f.Column)
			}
			vals = f.Values
		}
		wf := wireFilter{Col: f.Column, Op: f.Op}
		for _, v := range vals {
			wf.Vals = append(wf.Vals, wireValue{K: v.K, V: wireScalar(v)})
		}
		wire = append(wire, wf)
	}
	b, err := json.Marshal(wire)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// pageStream is the source's wrapper.RawReader: it pulls /query pages
// lazily as the consumer drains it.
type pageStream struct {
	src      *Source
	ctx      context.Context
	relation string
	filters  string
	schema   relalg.Schema

	page int
	buf  []relalg.Tuple
	pos  int
	done bool
}

func (p *pageStream) Schema() relalg.Schema { return p.schema }

// NextBatch implements wrapper.RawReader: a block is (at most) the
// remainder of the already-fetched page — the stream never fetches the
// next page just to fill a block, so pagination round trips still track
// consumer demand.
func (p *pageStream) NextBatch(max int) ([]relalg.Tuple, error) {
	for p.pos >= len(p.buf) {
		if p.done {
			return nil, nil
		}
		if err := p.fetchPage(); err != nil {
			return nil, err
		}
	}
	rows := p.buf[p.pos:min(p.pos+max, len(p.buf))]
	p.pos += len(rows)
	return rows, nil
}

// Close implements wrapper.RawReader. A page is one whole GET, so nothing
// is held open between blocks; the cursor refuses reads after Close.
func (p *pageStream) Close() error { return nil }

// fetchPage pulls the next page into the buffer.
func (p *pageStream) fetchPage() error {
	vals := url.Values{}
	vals.Set("rel", p.relation)
	vals.Set("page", strconv.Itoa(p.page))
	if p.filters != "" {
		vals.Set("filters", p.filters)
	}
	body, err := wrapper.GetBody(p.ctx, p.src.client, p.src.base+"/query?"+vals.Encode(), wrapper.DefaultMaxBodyBytes)
	if err != nil {
		return err
	}
	var doc queryDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return wrapper.Permanent(fmt.Errorf("restsrc: source %s: bad page %d: %w", p.src.name, p.page, err))
	}
	p.buf = p.buf[:0]
	p.pos = 0
	for _, row := range doc.Rows {
		if len(row) != len(p.schema.Columns) {
			return wrapper.Permanent(fmt.Errorf("restsrc: source %s: page %d row arity %d != %d",
				p.src.name, p.page, len(row), len(p.schema.Columns)))
		}
		tup := make(relalg.Tuple, len(row))
		for i, v := range row {
			col := p.schema.Columns[i]
			if tup[i], err = wrapper.FromScalar(v, col.Type); err != nil {
				return wrapper.Permanent(fmt.Errorf("restsrc: source %s: page %d column %s: %w", p.src.name, p.page, col.Name, err))
			}
		}
		p.buf = append(p.buf, tup)
	}
	if doc.Next != nil && *doc.Next > p.page {
		p.page = *doc.Next
	} else {
		p.done = true
	}
	return nil
}
