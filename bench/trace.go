package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/coin"
	"repro/internal/core"
	"repro/internal/planner"
	"repro/internal/relalg"
	"repro/internal/server"
	"repro/internal/sqlparse"
)

// The traced run records a span at each layer boundary from outside the
// engine: an HTTP middleware around server.New opens server.handler, a
// server.Service decorator over *coin.System records sqlparse.parse,
// core.mediate and planner.exec, and the wrapper decorator of sources.go
// records wrapper.query. Spans of one request share its id and stay in
// memory until the run ends. A span's self time is its duration minus
// the part of it its children cover, so the self times of one request
// add up to its client.request span exactly; plan and compile times are
// replayed after the response and flagged, since the engine does not
// expose them while it runs (ROADMAP item A).

// epoch anchors span times; they are nanoseconds since it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

type span struct {
	ID     uint64 `json:"id"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent uint64 `json:"parent"`
	Replay bool   `json:"replay,omitempty"`
}

var spanIDs atomic.Uint64

// reqTrace collects what the decorators see of one request. Parallel
// scans reach the wrapper decorator from several goroutines, hence the
// lock.
type reqTrace struct {
	mu         sync.Mutex
	id         uint64
	spans      []span
	root       uint64          // id of the client.request span the client adds
	handler    uint64          // id of the server.handler span
	exec       uint64          // id of the planner.exec span now open, else 0
	med        *core.Mediation // until replayed; a kept one would pin the whole derivation
	branches   int
	firstBatch int64 // stream opened -> first batch (or buffered answer) ready
	respBytes  int
	queries    int
	tuples     int
	pages      int
}

// add records a finished span.
func (rt *reqTrace) add(name string, start, end int64, parent uint64) {
	rt.mu.Lock()
	rt.spans = append(rt.spans, span{ID: spanIDs.Add(1), Req: rt.id, Name: name, Start: start, End: end, Parent: parent})
	rt.mu.Unlock()
}

type traceKey struct{}

func traceFrom(ctx context.Context) *reqTrace {
	rt, _ := ctx.Value(traceKey{}).(*reqTrace)
	return rt
}

// recorder is the traced system's side of the run: the middleware hands
// each finished request to the client that sent it. Clients are told
// apart by the path prefix /c<N> their base URL carries, and because the
// loop is closed each has at most one request in flight.
type recorder struct {
	sys      *coin.System
	handlers sync.Pool // *tracedHandler
	done     []atomic.Pointer[reqTrace]
	reqIDs   atomic.Uint64
}

func newRecorder(sys *coin.System, clients int) *recorder {
	r := &recorder{sys: sys, done: make([]atomic.Pointer[reqTrace], clients)}
	r.handlers.New = func() interface{} {
		svc := &tracedService{System: sys}
		return &tracedHandler{svc: svc, h: server.New(svc)}
	}
	return r
}

// tracedHandler pairs a server handler with the service value it calls.
// server.Service's Mediate and Explain take no context, so the request
// being traced is a field of the service, and each in-flight request
// borrows a pair of its own from the pool.
type tracedHandler struct {
	svc *tracedService
	h   http.Handler
}

// countingWriter measures the response body. It forwards Flush, or the
// NDJSON handler would lose row-by-row delivery under tracing.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += n
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (r *recorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	client, path, ok := splitClientPrefix(req.URL.Path)
	if !ok || client >= len(r.done) {
		http.NotFound(w, req)
		return
	}
	rt := &reqTrace{id: r.reqIDs.Add(1), root: spanIDs.Add(1), handler: spanIDs.Add(1), spans: make([]span, 0, 32)}
	req = req.WithContext(context.WithValue(req.Context(), traceKey{}, rt))
	u := *req.URL
	u.Path = path
	req.URL = &u

	th := r.handlers.Get().(*tracedHandler)
	th.svc.rt = rt
	cw := &countingWriter{ResponseWriter: w}
	start := now()
	th.h.ServeHTTP(cw, req)
	end := now()
	th.svc.rt = nil
	r.handlers.Put(th)

	rt.mu.Lock()
	rt.spans = append(rt.spans, span{ID: rt.handler, Req: rt.id, Name: "server.handler", Start: start, End: end, Parent: rt.root})
	rt.respBytes = cw.n
	rt.mu.Unlock()
	r.done[client].Store(rt)
}

// splitClientPrefix parses "/c<N>/rest" into N and "/rest".
func splitClientPrefix(path string) (int, string, bool) {
	if !strings.HasPrefix(path, "/c") {
		return 0, "", false
	}
	rest := path[2:]
	slash := strings.IndexByte(rest, '/')
	if slash < 0 {
		return 0, "", false
	}
	n, err := strconv.Atoi(rest[:slash])
	if err != nil || n < 0 {
		return 0, "", false
	}
	return n, rest[slash:], true
}

// take returns the trace of the request client just completed, closed
// with the client.request span the client timed around it.
func (r *recorder) take(client int, start, end int64) *reqTrace {
	rt := r.done[client].Swap(nil)
	if rt != nil {
		rt.spans = append(rt.spans, span{ID: rt.root, Req: rt.id, Name: "client.request", Start: start, End: end})
	}
	return rt
}

// tracedService is the benchmark's equivalent of coin's unexported
// serverView, with spans around each call into a layer. Everything it
// does not time it inherits from *coin.System.
type tracedService struct {
	*coin.System
	rt *reqTrace
}

// Mediate is Mediator.MediateSQL taken apart into its two steps.
func (s *tracedService) Mediate(sql, receiver string) (*core.Mediation, error) {
	t0 := now()
	stmt, err := sqlparse.Parse(sql)
	t1 := now()
	s.rt.add("sqlparse.parse", t0, t1, s.rt.handler)
	if err != nil {
		return nil, err
	}
	med, err := s.Mediator().Mediate(stmt, receiver)
	s.rt.add("core.mediate", t1, now(), s.rt.handler)
	s.rt.med = med
	return med, err
}

// execSpan times fn as a planner.exec span that wrapper spans may nest
// under.
func (s *tracedService) execSpan(fn func()) (start, end int64) {
	rt := s.rt
	id := spanIDs.Add(1)
	rt.mu.Lock()
	rt.exec = id
	rt.mu.Unlock()
	start = now()
	fn()
	end = now()
	rt.mu.Lock()
	rt.exec = 0
	rt.spans = append(rt.spans, span{ID: id, Req: rt.id, Name: "planner.exec", Start: start, End: end, Parent: rt.handler})
	rt.mu.Unlock()
	return start, end
}

func (s *tracedService) ExecuteWarnCtx(ctx context.Context, med *core.Mediation, opts planner.Limits) (rel *relalg.Relation, warns []planner.Warning, err error) {
	start, end := s.execSpan(func() { rel, warns, err = s.System.ExecuteWarnCtx(ctx, med, opts) })
	s.rt.firstBatch = end - start
	return rel, warns, err
}

// QueryStream does what coin.System.QueryStreamCtx does - mediate, open a
// session, compile the mediation, open the tree - with each step timed.
// The benchmark never asks for the naive form.
func (s *tracedService) QueryStream(ctx context.Context, sql, receiver string, naive bool, opts planner.Limits) (server.RowStream, error) {
	if naive {
		return nil, fmt.Errorf("bench: naive streams are not traced")
	}
	med, err := s.Mediate(sql, receiver)
	if err != nil {
		return nil, err
	}
	ts := &tracedStream{svc: s, med: med}
	s.execSpan(func() {
		ts.sess = s.Executor().NewSession(ctx, opts)
		ts.it, err = s.Executor().MediationStream(ts.sess, med)
		if err != nil {
			return
		}
		if opts.MaxRows > 0 {
			ts.it = relalg.NewLimit(ts.it, opts.MaxRows)
		}
		//lint:allow closebalance the open stream is handed to the server handler, which closes it, as coin.System.QueryStreamCtx hands over its RowStream
		err = ts.it.Open(ts.sess.Context())
	})
	if err != nil {
		ts.sess.Close()
		return nil, err
	}
	ts.opened = now()
	return ts, nil
}

// tracedStream mirrors coin.RowStream over the same iterator tree; the
// server only ever drains it by batch.
type tracedStream struct {
	svc    *tracedService
	sess   *planner.Session
	it     relalg.Iterator
	med    *core.Mediation
	opened int64
	closed bool
}

func (t *tracedStream) Schema() relalg.Schema       { return t.it.Schema() }
func (t *tracedStream) Mediation() *core.Mediation  { return t.med }
func (t *tracedStream) Warnings() []planner.Warning { return t.sess.Warnings() }

func (t *tracedStream) Next() (relalg.Tuple, bool, error) {
	rows, err := t.NextBatch(1)
	if err != nil || len(rows) == 0 {
		return nil, false, err
	}
	return rows[0], true, nil
}

func (t *tracedStream) NextBatch(max int) (rows []relalg.Tuple, err error) {
	if t.closed {
		return nil, nil
	}
	_, end := t.svc.execSpan(func() {
		var b relalg.Batch
		b, err = t.it.Next(max)
		rows = b.Rows
	})
	if t.svc.rt.firstBatch == 0 {
		t.svc.rt.firstBatch = end - t.opened
	}
	return rows, err
}

func (t *tracedStream) Close() (err error) {
	if t.closed {
		return nil
	}
	t.closed = true
	t.svc.execSpan(func() {
		err = t.it.Close()
		t.sess.Close()
	})
	return err
}

// replayEvery thins out the replays: each one runs the planner between
// two requests and leaves the next request a colder cache.
const replayEvery = 8

// replay lets go of the request's mediation and, when timed is set,
// first plans and compiles every branch of it again, outside the
// request, to time the two steps the engine runs inside MediationStream.
func (r *recorder) replay(ctx context.Context, rt *reqTrace, timed bool) {
	med := rt.med
	if med == nil {
		return
	}
	rt.med, rt.branches = nil, len(med.Branches)
	if !timed {
		return
	}
	ex := r.sys.Executor()
	sess := ex.NewSession(ctx, planner.Limits{})
	defer sess.Close()
	for _, br := range med.Branches {
		t0 := now()
		plan, err := ex.PlanCtx(sess.Context(), br)
		t1 := now()
		if err != nil {
			return
		}
		ex.ParallelizePlan(plan, sess)
		_, err = ex.BuildStream(sess, plan)
		t2 := now()
		if err != nil {
			return
		}
		rt.spans = append(rt.spans,
			span{ID: spanIDs.Add(1), Req: rt.id, Name: "planner.plan", Start: t0, End: t1, Replay: true},
			span{ID: spanIDs.Add(1), Req: rt.id, Name: "planner.compile", Start: t1, End: t2, Replay: true})
	}
}

// reqLedger is one request's spans boiled down to per-layer numbers, in
// milliseconds.
type reqLedger struct {
	latency, transport, handler, serverSelf, parse, mediate float64
	exec, execSelf, plan, compile, firstBatch               float64
	replayed                                                bool // plan and compile were timed
	wrapBusy, wrapCovered                                   float64
	maxInflight, queries, tuples, pages, branches           int
	respKB                                                  float64
}

const msPerNs = 1e-6

// ledger computes the self times of a finished request's spans.
func (rt *reqTrace) ledger() reqLedger {
	children := map[uint64][]span{}
	var root span
	for _, s := range rt.spans {
		if s.ID == rt.root {
			root = s
		} else if !s.Replay {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := func(s span) float64 {
		covered, _ := coverage(children[s.ID], s.Start, s.End)
		return float64(s.End-s.Start-covered) * msPerNs
	}
	l := reqLedger{
		latency:    float64(root.End-root.Start) * msPerNs,
		transport:  self(root),
		firstBatch: float64(rt.firstBatch) * msPerNs,
		queries:    rt.queries, tuples: rt.tuples, pages: rt.pages, branches: rt.branches,
		respKB: float64(rt.respBytes) / 1024,
	}
	var wrapped []span
	for _, s := range rt.spans {
		d := float64(s.End-s.Start) * msPerNs
		switch s.Name {
		case "server.handler":
			l.handler, l.serverSelf = d, self(s)
		case "sqlparse.parse":
			l.parse += d
		case "core.mediate":
			l.mediate += d
		case "planner.exec":
			l.exec += d
			l.execSelf += self(s)
		case "planner.plan":
			l.replayed = true
			l.plan += d
		case "planner.compile":
			l.compile += d
		case "wrapper.query":
			l.wrapBusy += d
			wrapped = append(wrapped, s)
		}
	}
	covered, depth := coverage(wrapped, root.Start, root.End)
	l.wrapCovered, l.maxInflight = float64(covered)*msPerNs, depth
	return l
}

// coverage returns how much of [lo, hi] the spans cover between them and
// the largest number of them open at once.
func coverage(spans []span, lo, hi int64) (covered int64, depth int) {
	if len(spans) == 0 {
		return 0, 0
	}
	type edge struct {
		at    int64
		delta int
	}
	edges := make([]edge, 0, 2*len(spans))
	for _, s := range spans {
		start, end := max(s.Start, lo), min(s.End, hi)
		if end > start {
			edges = append(edges, edge{start, 1}, edge{end, -1})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	open := 0
	var since int64
	for _, e := range edges {
		if open > 0 {
			covered += e.at - since
		}
		since = e.at
		open += e.delta
		depth = max(depth, open)
	}
	return covered, depth
}

// traceFileRequests caps how many requests' spans are kept for the trace
// file; the metrics use every request.
const traceFileRequests = 2000

func writeTrace(path string, traces []*reqTrace) error {
	var spans []span
	for _, rt := range traces {
		spans = append(spans, rt.spans...)
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
