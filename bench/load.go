package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/client"
)

// request is one query a client sends and what the oracle expects back.
type request struct {
	sql  string
	t    int // template
	rank int // the revenue rank its literal sits above
	want answer
}

func (h *host) newRequest(t, rank, u int) request {
	k := literal(rank, u)
	return request{sql: fmt.Sprintf(templateSQL[t], k), t: t, rank: rank, want: h.fed.expect(t, k)}
}

// allTexts lists the workload's distinct query texts (templates x ranks)
// with the oracle's answers; Unique workloads derive a fresh text per
// request from the same grid.
func (h *host) allTexts() []request {
	var out []request
	for _, rank := range h.w.Ranks {
		for _, t := range h.w.Templates {
			out = append(out, h.newRequest(t, rank, 0))
		}
	}
	return out
}

// sample is one correctly answered request.
type sample struct {
	done    time.Duration // since the phase began
	latency float64       // ms, request sent -> answer fully read
	ttfr    float64       // ms, request sent -> first row in hand
	rows    int
}

// phase is one stretch of closed-loop load and what it measured.
type phase struct {
	start     time.Time
	samples   []sample
	attempted int
	failed    int
	firstErr  error
	// A traced phase keeps every request's ledger - a few numbers - and
	// the spans of its first traceFileRequests only: tens of megabytes of
	// live spans would cost the traced host GC time the plain one is
	// spared.
	ledgers []reqLedger
	traces  []*reqTrace
}

// loadSpec says how long or how many requests a phase lasts and how its
// clients choose texts.
type loadSpec struct {
	duration time.Duration // time-bounded phase
	requests int           // or: exactly this many, from one client, cycling the texts in order
	seed     int64
	record   bool // keep the traced requests
}

// drive runs one closed-loop phase: every client sends its next request
// only when the previous answer has been read and checked. issued counts
// requests over the host's lifetime, which is what spaces out churn and
// keeps Unique literals distinct across phases.
func (h *host) drive(ctx context.Context, spec loadSpec) phase {
	texts := h.texts
	clients := h.w.Clients
	if spec.requests > 0 {
		clients = 1
	}
	parts := make([]phase, clients)
	start := time.Now()
	deadline := start.Add(spec.duration)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			p.start = start
			rng := rand.New(rand.NewSource(spec.seed + int64(c)*7919))
			for i := 0; ; i++ {
				if spec.requests > 0 {
					if i >= spec.requests {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				if ctx.Err() != nil {
					return
				}
				var req request
				switch {
				case spec.requests > 0 || h.w.Alternate:
					req = texts[(i+c)%len(texts)]
				default:
					req = texts[rng.Intn(len(texts))]
				}
				if h.w.Unique {
					// One client only: churn must not run beside a query.
					h.issued++
					if h.issued%churnEvery == 0 {
						if err := h.churn(); err != nil {
							p.fail(err)
							return
						}
					}
					req = h.newRequest(req.t, req.rank, h.issued*7919%literalSpan)
				}
				h.do(ctx, c, req, p, spec.record)
			}
		}(c)
	}
	wg.Wait()
	total := phase{start: start}
	for _, p := range parts {
		total.samples = append(total.samples, p.samples...)
		total.attempted += p.attempted
		total.failed += p.failed
		total.ledgers = append(total.ledgers, p.ledgers...)
		total.traces = append(total.traces, p.traces...)
		if total.firstErr == nil {
			total.firstErr = p.firstErr
		}
	}
	return total
}

// p50 is the median latency of everything the phase completed.
func (p phase) p50() float64 {
	lat := make([]float64, len(p.samples))
	for i, s := range p.samples {
		lat[i] = s.latency
	}
	return median(lat)
}

func (p *phase) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// do sends one request through the receiver-side client, reads the whole
// answer and checks it against the oracle. A transport error, a non-200
// status (the client reports both as errors) or a wrong answer is a
// failed operation.
func (h *host) do(ctx context.Context, c int, req request, p *phase, record bool) {
	p.attempted++
	v := newVerifier(req.t, req.want)
	conn := h.conns[c]
	var firstRow time.Time
	t0 := time.Now()
	var err error
	if h.w.Stream {
		var cur *client.RowCursor
		cur, err = conn.QueryStream(ctx, req.sql, "c2", false, client.Options{})
		if err == nil {
			for cur.Next() {
				if firstRow.IsZero() {
					firstRow = time.Now()
				}
				v.row(cur.Row())
			}
			err = cur.Err()
			cur.Close()
		}
	} else {
		var res *client.Result
		res, err = conn.QueryCtx(ctx, req.sql, "c2", client.Options{})
		if err == nil {
			firstRow = time.Now()
			for _, row := range res.Rows {
				v.row(row)
			}
		}
	}
	t1 := time.Now()
	if firstRow.IsZero() {
		firstRow = t1
	}
	var rt *reqTrace
	if h.rec != nil {
		rt = h.rec.take(c, int64(t0.Sub(epoch)), int64(t1.Sub(epoch)))
	}
	if err == nil {
		err = v.err()
	}
	if err != nil {
		p.fail(fmt.Errorf("%s: %w", req.sql, err))
		return
	}
	p.samples = append(p.samples, sample{
		done:    t1.Sub(p.start),
		latency: float64(t1.Sub(t0)) / 1e6,
		ttfr:    float64(firstRow.Sub(t0)) / 1e6,
		rows:    v.got.rows,
	})
	if record && rt != nil {
		h.rec.replay(ctx, rt, len(p.ledgers)%replayEvery == 0)
		p.ledgers = append(p.ledgers, rt.ledger())
		if len(p.traces) < traceFileRequests {
			p.traces = append(p.traces, rt)
		}
	}
}

// percentile reads the p-th percentile off sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*p/100 + 0.5)
	return sorted[min(max(i, 1), len(sorted))-1]
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// reading is the timing of a measured window, or of one segment of it.
type reading struct {
	n               int
	p50, tail, ttfr float64 // ms
	qps, rowsPerSec float64
}

// quiet is how the benchmark reads a window on a shared machine. Other
// tenants of the host slow this process down for seconds to minutes at a
// time, by up to half; they never speed it up. So the window is cut into
// segments, the medians and rates are computed per segment, and the run
// reports each from the segment where it read best: the nearest the run
// came to the machine's own speed. The tail percentile needs more
// samples than a segment holds, so it is taken over the samples of the
// quietest quarter of the segments (by median latency) together. What
// the program itself does slowly it does in every segment, so it still
// shows.
func (p phase) quiet(window, length time.Duration, tailPct float64) reading {
	length = min(length, window)
	type segment struct {
		lat, ttfr   []float64
		firstRows   int           // delivered by the segment's first answer
		rows        int           // delivered after it
		first, last time.Duration // when its first and last answers were complete
	}
	samples := append([]sample(nil), p.samples...)
	sort.Slice(samples, func(i, j int) bool { return samples[i].done < samples[j].done })
	all := make([]segment, int(window/length))
	for _, s := range samples {
		i := int(s.done / length)
		if i >= len(all) {
			break
		}
		seg := &all[i]
		if len(seg.lat) == 0 {
			seg.first, seg.firstRows = s.done, s.rows
		} else {
			seg.rows += s.rows
		}
		seg.last = s.done
		seg.lat = append(seg.lat, s.latency)
		seg.ttfr = append(seg.ttfr, s.ttfr)
	}
	best := reading{p50: math.Inf(1), ttfr: math.Inf(1)}
	var segs []segment // the ones that saw a request finish
	for _, seg := range all {
		if len(seg.lat) == 0 {
			continue
		}
		sort.Float64s(seg.lat)
		sort.Float64s(seg.ttfr)
		segs = append(segs, seg)
		best.n += len(seg.lat)
		best.p50 = min(best.p50, percentile(seg.lat, 50))
		best.ttfr = min(best.ttfr, percentile(seg.ttfr, 50))
		// Rates run from the segment's first answer to its last, so they
		// do not move in steps of one request per segment length - unless
		// one answer is all the segment saw.
		answers, rows, span := len(seg.lat)-1, seg.rows, (seg.last - seg.first).Seconds()
		if span <= 0 {
			answers, rows, span = 1, seg.firstRows, length.Seconds()
		}
		best.qps = max(best.qps, float64(answers)/span)
		best.rowsPerSec = max(best.rowsPerSec, float64(rows)/span)
	}
	sort.Slice(segs, func(i, j int) bool { return percentile(segs[i].lat, 50) < percentile(segs[j].lat, 50) })
	var pool []float64
	for _, seg := range segs[:(len(segs)+3)/4] {
		pool = append(pool, seg.lat...)
	}
	sort.Float64s(pool)
	best.tail = percentile(pool, tailPct)
	return best
}

// measured is what one untraced run of a workload reports.
type measured struct {
	metrics   map[string]float64
	samples   int
	attempted int
	failed    int
	firstErr  error
}

// runPlan sizes one run. Every run the program makes uses planFor; the
// smoke tests shrink it.
type runPlan struct {
	window  time.Duration // the measured stretch of load
	segment time.Duration // the window is read segment by segment, see phase.quiet
	warmup  time.Duration // load before it, so adaptive statistics and caches settle
	// Set-up is repeated at least setups times and until setupFor has
	// gone by; the fastest is reported, for the reason phase.quiet gives.
	setups   int
	setupFor time.Duration
}

func planFor(window time.Duration) runPlan {
	return runPlan{window: window, segment: 2 * time.Second, warmup: 2 * time.Second, setups: 5, setupFor: time.Second}
}

// countCycles is how often the counts pass goes through the workload's
// texts; the counts are exact, so a few cycles say all there is.
const countCycles = 3

// setUp builds, serves and warms a host until its first correct answer,
// and reports how long that took.
func setUp(ctx context.Context, w workloadDef, fed *federation, traced bool) (*host, time.Duration, error) {
	t0 := time.Now()
	h, err := newHost(w, fed, traced)
	if err != nil {
		return nil, 0, err
	}
	first := h.drive(ctx, loadSpec{requests: len(h.texts)})
	if first.failed > 0 {
		h.close()
		return nil, 0, fmt.Errorf("bench: %s: first answers: %w", w.Name, first.firstErr)
	}
	return h, time.Since(t0), nil
}

// runUntraced measures a workload's end-to-end metrics: set-up several
// times over (the last host is kept), a warm-up that lets the adaptive
// statistics settle, and the measured window.
//
// The counts pass runs on the first host, straight after its set-up: one
// client sends every text a fixed number of times in a fixed order. The
// planner's learned statistics shape its plans, so only a host whose
// whole history is counted in requests, not seconds, issues the same
// source queries on every run.
func runUntraced(ctx context.Context, w workloadDef, seed int64, plan runPlan) (measured, error) {
	fed := newFederation(w.N, w.Currencies, seed)
	var h *host
	var setups []float64
	var counts phase
	var sourceQueries, sourceTuples int
	for i, began := 0, time.Now(); i < plan.setups || time.Since(began) < plan.setupFor; i++ {
		if h != nil {
			h.close()
		}
		var took time.Duration
		var err error
		if h, took, err = setUp(ctx, w, fed, false); err != nil {
			return measured{}, err
		}
		setups = append(setups, took.Seconds())
		if i == 0 {
			before := h.sys.Executor().Stats()
			counts = h.drive(ctx, loadSpec{requests: countCycles * len(h.texts)})
			after := h.sys.Executor().Stats()
			sourceQueries = after.SourceQueries - before.SourceQueries
			sourceTuples = after.TuplesTransferred - before.TuplesTransferred
		}
	}
	defer h.close()

	warm := h.drive(ctx, loadSpec{duration: plan.warmup, seed: seed})
	var before, after, end runtime.MemStats
	runtime.ReadMemStats(&before)
	run := h.drive(ctx, loadSpec{duration: plan.window, seed: seed + 1})
	runtime.ReadMemStats(&after)

	m := measured{
		samples:   len(run.samples),
		attempted: warm.attempted + run.attempted + counts.attempted,
		failed:    warm.failed + run.failed + counts.failed,
	}
	for _, p := range []phase{counts, warm, run} {
		if m.firstErr == nil {
			m.firstErr = p.firstErr
		}
	}
	best := run.quiet(plan.window, plan.segment, w.TailPct)
	if best.n == 0 || counts.attempted == 0 {
		return m, fmt.Errorf("bench: %s: no request completed: %v", w.Name, m.firstErr)
	}
	// The live heap is the mediator's, not the harness's: let go of the
	// samples first, and collect twice so that what sync.Pools still hold
	// after one cycle is gone too.
	warm.samples, run.samples, counts.samples = nil, nil, nil
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&end)
	sort.Float64s(setups)
	m.metrics = map[string]float64{
		"setup_s":                setups[0],
		"latency_ms_p50":         best.p50,
		"latency_ms_tail":        best.tail,
		"ttfr_ms_p50":            best.ttfr,
		"qps":                    best.qps,
		"rows_per_s":             best.rowsPerSec,
		"source_queries_per_req": float64(sourceQueries) / float64(counts.attempted),
		"source_tuples_per_req":  float64(sourceTuples) / float64(counts.attempted),
		"alloc_kb_per_req":       float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(run.attempted),
		"heap_live_mb_end":       float64(end.HeapAlloc) / (1 << 20),
	}
	return m, nil
}
