package planner

// The source access layer: every fetch the engine issues — streaming
// scans and materialized bind-join probes alike — is admitted through a
// per-source dispatcher, a bounded pool of in-flight queries keyed by
// wrapper. The pool size comes from the source's Cost.MaxConcurrent
// (sources know their own tolerance), further capped per session by
// Limits.MaxConcurrentPerSource. On top of admission, materialized
// probe fetches are deduplicated within a session: a canonicalized
// SourceQuery that has already been answered is served from the session
// result cache, and one that is currently in flight is joined
// (single-flight) instead of re-issued — repeated identical probes
// across mediation branches hit the network exactly once.
//
// Slot discipline: every fetch holds exactly one slot. A streaming scan
// holds it from its first Next until the stream is exhausted, fails, or
// is closed; a materialized fetch holds it for the duration of the source
// query. The deadlock argument:
//
//   - Open runs only a pipeline's breakers. Nothing opened holds a slot
//     until its first Next: scan leaves admit there. Every breaker drains
//     one side to memory, closing it and freeing its slot before it pulls
//     the other, so a pipeline waiting for admission holds
//     no slots from other steps, and an Open always finishes on its own
//     progress. That is why a mediated union may open all its branches at
//     once (MediationStream does over slow sources, and never under a
//     LIMIT, whose early exit wants them lazy): a branch waiting on
//     another's shared build holds no slot, and the one branch being
//     pulled holds slots only for streams the union's consumer drains
//     without waiting on any other branch.
//   - The session-level and source-level pools are always taken in that
//     order (session first), so the two levels cannot deadlock against
//     each other.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"time"

	"repro/internal/relalg"
	"repro/internal/wrapper"
)

// DefaultMaxConcurrentPerSource is the dispatcher pool size for sources
// that do not state their own Cost.MaxConcurrent.
const DefaultMaxConcurrentPerSource = 4

// dispatcher is a bounded admission pool for one source: at most
// cap(slots) queries are in flight against it at once. The executor-level
// dispatcher additionally carries the source's circuit breaker
// (breaker.go) — admission and health tracking want the same per-source
// scope.
type dispatcher struct {
	slots chan struct{}

	// circuit-breaker state (methods in breaker.go)
	bmu        sync.Mutex
	bstate     int // breakerClosed / breakerOpen / breakerHalfOpen
	bfails     int // consecutive failures while closed
	bopenUntil time.Time
	bprobing   bool // half-open probe in flight
}

func newDispatcher(n int) *dispatcher {
	if n <= 0 {
		n = DefaultMaxConcurrentPerSource
	}
	return &dispatcher{slots: make(chan struct{}, n)}
}

// acquire blocks until a slot frees or ctx dies.
func (d *dispatcher) acquire(ctx context.Context) error {
	select {
	case d.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release frees one acquired slot. Releasing more than was acquired is a
// slot-accounting bug in the caller (a double release would silently
// widen the pool), so it panics rather than corrupting admission.
func (d *dispatcher) release() {
	select {
	case <-d.slots:
	default:
		panic("planner: dispatcher release without acquire")
	}
}

// dispatcherPool lazily keeps one dispatcher per source; the executor
// (source-level pools) and the session (per-query allowances) share it.
type dispatcherPool struct {
	mu sync.Mutex
	m  map[string]*dispatcher
}

// get returns the source's dispatcher, creating it with n slots (0:
// default) on first use.
func (p *dispatcherPool) get(source string, n int) *dispatcher {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.m == nil {
		p.m = map[string]*dispatcher{}
	}
	d := p.m[source]
	if d == nil {
		d = newDispatcher(n)
		p.m[source] = d
	}
	return d
}

// dispatcherFor returns (creating on first use) the executor's admission
// pool for w's source.
func (e *Executor) dispatcherFor(w wrapper.Wrapper) *dispatcher {
	return e.disp.get(w.Source(), w.Cost().MaxConcurrent)
}

// acquireSource reserves one in-flight-query slot against w, first in the
// session's per-source allowance (when limited), then in the source's own
// dispatcher; the consistent ordering rules out deadlock between the two
// levels (see the slot-discipline comment at the top of this file). The
// release callback frees both and must be called exactly once.
func (e *Executor) acquireSource(ctx context.Context, sess *Session, w wrapper.Wrapper) (release func(), err error) {
	sd := sess.dispatcherFor(w.Source())
	d := e.dispatcherFor(w)
	if sd != nil {
		if err := sd.acquire(ctx); err != nil {
			return nil, err
		}
	}
	if err := d.acquire(ctx); err != nil {
		if sd != nil {
			sd.release()
		}
		return nil, err
	}
	return func() {
		d.release()
		if sd != nil {
			sd.release()
		}
	}, nil
}

// DefaultProbeCacheBytes bounds the (approximate) bytes of source answers
// — bind-join probe relations and hash-join build tables — a session
// retains for reuse. Past the bound, answers are still single-flighted
// while in flight but are not kept afterwards, so a huge bind join or
// build side cannot stay pinned for the session's lifetime.
const DefaultProbeCacheBytes = 64 << 20

// cached is what the session cache holds: a probe answer
// (*relalg.Relation) or a hash-join build side (*relalg.BuildTable).
type cached interface{ ApproxBytes() int64 }

// probeCache is the session-scoped source-result cache with single-flight
// deduplication. Probe answers key on "probe" + source name +
// SourceQuery.Canonical(), build tables on "build" + what buildSharer
// lists, so the two kinds can never meet under one key.
type probeCache struct {
	mu      sync.Mutex
	entries map[string]*probeEntry
	bytes   int64
}

// probeEntry is one cached (or in-flight) answer; done closes when val
// and err are final.
type probeEntry struct {
	done chan struct{}
	val  cached
	err  error
}

// cachedFetch answers key from the session cache, running fetch at most
// once per key at a time: a repeated identical request returns the cached
// value (a cache hit — not a source query, and charged nothing by the
// governors, since fetch never ran), and a concurrent identical request
// waits for the first one's answer. Errors are not cached, and a failed
// flight is no answer for its waiters either: each retries as a later
// request would, so one mediation branch's fault (or its fetch group's
// cancellation) never fells another branch that happened to wait on it.
func cachedFetch[T cached](ctx context.Context, e *Executor, sess *Session, key string, fetch func() (T, error)) (T, error) {
	var zero T
	cache := &sess.probe
	cache.mu.Lock()
	for ent, ok := cache.entries[key]; ok; ent, ok = cache.entries[key] {
		cache.mu.Unlock()
		select {
		case <-ent.done:
		case <-ctx.Done():
			return zero, ctx.Err()
		}
		if ent.err == nil {
			e.mu.Lock()
			e.stats.CacheHits++
			e.mu.Unlock()
			return ent.val.(T), nil
		}
		cache.mu.Lock()
	}
	if cache.entries == nil {
		cache.entries = map[string]*probeEntry{}
	}
	ent := &probeEntry{done: make(chan struct{})}
	cache.entries[key] = ent
	cache.mu.Unlock()
	val, err := fetch()
	// An over-budget answer still serves the waiters that joined this
	// flight; it just is not kept for later requests.
	var size int64
	if err == nil {
		size = val.ApproxBytes()
	}
	ent.val, ent.err = val, err
	cache.mu.Lock()
	if err != nil || cache.bytes+size > DefaultProbeCacheBytes {
		delete(cache.entries, key)
	} else {
		cache.bytes += size
	}
	cache.mu.Unlock()
	close(ent.done)
	return val, err
}

// fetchSource answers one materialized source query through the
// dispatcher, deduplicated within the session (cachedFetch).
func (e *Executor) fetchSource(ctx context.Context, sess *Session, w wrapper.Wrapper, q wrapper.SourceQuery) (*relalg.Relation, error) {
	return cachedFetch(ctx, e, sess, "probe\x00"+w.Source()+"\x00"+q.Canonical(), func() (*relalg.Relation, error) {
		return e.querySource(ctx, sess, w, q)
	})
}

// buildSharer returns the relalg.BuildSharer of one non-bind join step:
// its build table lives in the session cache under everything that
// decides its content — source, relation and pushed filters, the binding
// with the engine-local filters and predicates written against it, and
// the key columns it is hashed on — so the branches of a mediated union
// (and concurrent pipelines of the session) fetch, collect and hash the
// relation once. The key is rendered when the join opens: an unopened
// branch pays nothing.
func (e *Executor) buildSharer(sess *Session, step *PlanStep) relalg.BuildSharer {
	return func(ctx context.Context, build func() (*relalg.BuildTable, error)) (*relalg.BuildTable, error) {
		var key strings.Builder
		key.WriteString("build\x00" + step.Source + "\x00")
		key.WriteString(wrapper.SourceQuery{Relation: step.Relation, Filters: step.Pushed}.Canonical())
		key.WriteString("\x00")
		key.WriteString(wrapper.SourceQuery{Relation: step.Binding, Filters: step.Local}.Canonical())
		for _, p := range step.LocalPreds {
			key.WriteString("\x00" + p.String())
		}
		key.WriteString("\x00on")
		for _, k := range step.JoinKeys {
			key.WriteString("\x00" + k.NewColumn)
		}
		return cachedFetch(ctx, e, sess, key.String(), build)
	}
}

// querySource runs one materialized source query under admission and the
// retry/breaker machinery (retry.go), counting it, charging the session's
// transfer governor, and feeding the adaptive statistics (observed
// cardinality and query latency, buffered on the session until Close).
// Each attempt re-acquires admission, so no slot is held through a
// backoff sleep; governor charges happen once, after the attempt that
// succeeded.
func (e *Executor) querySource(ctx context.Context, sess *Session, w wrapper.Wrapper, q wrapper.SourceQuery) (*relalg.Relation, error) {
	var rel *relalg.Relation
	err := e.withRetry(ctx, sess, w, func() error {
		release, err := e.acquireSource(ctx, sess, w)
		if err != nil {
			return err
		}
		defer release()
		start := time.Now()
		rel, err = w.Query(ctx, q)
		if err != nil {
			return err
		}
		sess.bufferObs(statObs{source: w.Source(), latency: time.Since(start)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Governor and accounting effects stay outside the retry loop: a
	// budget violation is the query's fault, not the source's, so it must
	// not feed the breaker or come back source-attributed (it stays fatal
	// even in partial-results mode).
	sess.bufferObs(statObs{relation: q.Relation, filters: q.Filters, rows: rel.Len()})
	e.countQuery(rel.Len())
	if err := sess.chargeTuples(rel.Len()); err != nil {
		return nil, err
	}
	return rel, nil
}

// fetchAll answers a set of source queries concurrently (each through
// fetchSource, so admission, caching and governors all apply), returning
// the results in query order. A worker pool no larger than the source's
// own concurrency cap runs them — more goroutines would only queue at
// the dispatcher. The queries share a context cancelled on the first
// failure, so sibling fetches stop promptly; the first error by query
// order that is not that derived cancellation is reported.
func (e *Executor) fetchAll(ctx context.Context, sess *Session, w wrapper.Wrapper, queries []wrapper.SourceQuery) ([]*relalg.Relation, error) {
	if len(queries) == 1 {
		rel, err := e.fetchSource(ctx, sess, w, queries[0])
		if err != nil {
			return nil, err
		}
		return []*relalg.Relation{rel}, nil
	}
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	workers := w.Cost().MaxConcurrent
	if workers <= 0 {
		workers = DefaultMaxConcurrentPerSource
	}
	workers = min(workers, len(queries))
	results := make([]*relalg.Relation, len(queries))
	errs := make([]error, len(queries))
	next := make(chan int)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], errs[i] = e.fetchSource(fctx, sess, w, queries[i])
				if errs[i] != nil {
					cancel()
				}
			}
		}()
	}
	for i := range queries {
		next <- i
	}
	close(next)
	wg.Wait()
	if err := firstRealError(errs); err != nil {
		return nil, err
	}
	return results, nil
}

// firstRealError picks the error to report from a cancelled-as-a-group
// fan-out: the first (by order) that is not a context error — Canceled
// and DeadlineExceeded alike are usually just the echo of the group
// cancellation a sibling's failure triggered — falling back to the first
// error of any kind (the whole group may have been cancelled or timed
// out from above). nil when every slot succeeded.
func firstRealError(errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
	}
	return first
}

// batchSizeFor decides the bind-join batch width against a source: its
// advertised IN-list width when batching applies, 1 (per-value probes)
// when it does not. Batching requires an InList-capable source and a
// single-column bind join (an IN list expresses one column's
// disjunction); DisableBatching is the ablation switch.
func (e *Executor) batchSizeFor(caps wrapper.Capabilities, bindCols int) int {
	if e.DisableBatching || bindCols != 1 || !caps.InList {
		return 1
	}
	if caps.BatchSize > 0 {
		return caps.BatchSize
	}
	return wrapper.DefaultBatchSize
}
