package relalg

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/sqlparse"
)

// This file holds the intra-query parallelism ("exchange") operators:
// ParallelHashJoinIter (the probe stream split across N worker pipelines
// over the one BuildTable the serial HashJoinIter would build), plus
// forChunks and the rows-per-worker floor that SortIter.Par's chunk sort +
// order-preserving merge — the many-worker case of the one sort kernel
// (sortTuples in ops.go) — runs on.
//
// Determinism rule: every parallel operator produces output identical in
// content AND order to its serial counterpart, so plans never change
// results when the parallelism knob moves. The mechanisms:
//
//   - parallel hash join: probe batches are dispatched round-robin to
//     workers and their outputs re-read in the same round-robin order,
//     so rows flow in exact probe-stream order; every worker probes the
//     same table, so match order inside a bucket is build-insertion order.
//   - parallel sort: contiguous chunks are sorted concurrently and
//     merged under one comparator that is a strict total order (key
//     columns by SortKey, then row index), so the merge is the serial
//     sort by construction — for NaN keys too.
//
// Isolation rule: no KeyEncoder scratch buffer or transient batch crosses
// a worker boundary. The build table and its pool are frozen before the
// first worker starts; probers read them through private encoders
// (KeyEncoder.LookupKey never grows a pool); batches handed across
// channels are durable copies (fresh builder arenas or copied row-header
// slices).

// tupleHasNullKey reports whether any key column of t is NULL (SQL
// equality: such rows can never join).
func tupleHasNullKey(t Tuple, cols []int) bool {
	for _, i := range cols {
		if t[i].IsNull() {
			return true
		}
	}
	return false
}

// phjChunk is one unit of worker→consumer flow: a durable row slice, a
// marker for the final chunk of one input probe batch, and an optional
// terminal error (residual evaluation failed; any partial rows were
// flushed in the preceding chunk, matching the serial flush-before-fail
// contract).
type phjChunk struct {
	rows []Tuple
	last bool
	err  error
}

// phjChanCap bounds the dispatch and output channels so a fast producer
// cannot buffer unbounded batches ahead of a slow consumer.
const phjChanCap = 2

// ParallelHashJoinIter is the exchange form of HashJoinIter: the build
// side becomes one BuildTable exactly as in the serial join (openBuild);
// probe batches are then dispatched round-robin to Par worker pipelines
// that probe the table read-only and emit concatenated rows. The consumer
// re-reads worker outputs in the same round-robin order, so the output is
// identical in content and order to the serial HashJoinIter — batch
// boundaries may differ, row order may not.
//
// The probe child is driven only from the dispatch goroutine; Close
// cancels the internal context, waits for every worker to exit, and only
// then closes the child, so the single-use iterator contract holds.
type ParallelHashJoinIter struct {
	hashJoin
	// Par is the worker count; set before Open (values < 1 run one
	// worker). The planner only builds this operator when Par > 1.
	Par int
	// WorkerOut, when non-nil, counts the rows each worker emitted
	// (index = worker, extra slots ignored) — the per-worker breakdown
	// EXPLAIN ANALYZE renders. Set before Open; counters are atomic so
	// the observer may read them while the exchange runs.
	WorkerOut []atomic.Int64

	ctx       context.Context // set by Open, cleared when the exchange starts
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	outs      []chan phjChunk
	dist      *phjDist
	nextBatch int
	exhausted bool
	cur       []Tuple
	pos       int
}

// phjDist carries the dispatch goroutine's terminal error (a probe-side
// Next failure) to the consumer, which surfaces it after every
// dispatched batch's output has been served — the same position the
// serial join would surface it.
type phjDist struct {
	mu sync.Mutex
	e  error
}

func (d *phjDist) fail(err error) {
	d.mu.Lock()
	if d.e == nil {
		d.e = err
	}
	d.mu.Unlock()
}

func (d *phjDist) err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.e
}

// NewParallelHashJoin prepares an exchange-parallel hash join of left
// and right on pairwise equal key columns, mirroring NewHashJoin's
// contract (buildLeft selects the materialized side; residual applies to
// the concatenated row; output columns are always left ++ right).
func NewParallelHashJoin(left, right Iterator, leftKeys, rightKeys []string, residual sqlparse.Expr, buildLeft bool, _ Stager, par int) (*ParallelHashJoinIter, error) {
	core, err := newHashJoin(left, right, leftKeys, rightKeys, residual, buildLeft)
	if err != nil {
		return nil, err
	}
	return &ParallelHashJoinIter{hashJoin: core, Par: par}, nil
}

// Open implements Iterator: it obtains the build side's hash table and
// opens the probe child. The dispatch and worker goroutines start on the
// first Next, so an opened but unpulled join has no goroutine waiting on
// its consumer and no probe leaf holding an admission slot.
func (j *ParallelHashJoinIter) Open(ctx context.Context) error {
	if err := j.openBuild(ctx); err != nil {
		return err
	}
	if err := j.probe.Open(ctx); err != nil {
		// A failed child Open cleans up after itself; never Close it.
		j.probe = nil
		return err
	}
	j.ctx = ctx
	j.nextBatch, j.exhausted, j.cur, j.pos = 0, false, nil, 0
	return nil
}

// start launches the exchange: Par workers and the dispatch goroutine.
func (j *ParallelHashJoinIter) start() {
	par := max(j.Par, 1)
	wctx, cancel := context.WithCancel(j.ctx)
	j.ctx, j.cancel = nil, cancel
	ins := make([]chan []Tuple, par)
	j.outs = make([]chan phjChunk, par)
	for p := range ins {
		ins[p] = make(chan []Tuple, phjChanCap)
		j.outs[p] = make(chan phjChunk, phjChanCap)
	}
	j.dist = &phjDist{}
	for p := 0; p < par; p++ {
		j.wg.Add(1)
		go j.worker(wctx, p, ins[p], j.outs[p])
	}
	j.wg.Add(1)
	go j.dispatch(wctx, ins)
}

// dispatch pulls probe batches and hands batch k to worker k%Par. It is
// the only goroutine touching the probe child between start and Close.
func (j *ParallelHashJoinIter) dispatch(ctx context.Context, ins []chan []Tuple) {
	defer j.wg.Done()
	// Closing the inboxes is the workers' end-of-stream signal, on both
	// the clean and the cancelled path.
	defer func() {
		for _, in := range ins {
			close(in)
		}
	}()
	k := 0
	for {
		b, err := j.probe.Next(DefaultBatchSize)
		if err != nil {
			j.dist.fail(err)
			return
		}
		if b.Empty() {
			return
		}
		// Durable copy of the row headers: the batch's Rows slice is only
		// valid until the next Next on the probe child, but the worker
		// consumes it asynchronously. The Tuples inside are durable per
		// the batch contract (the probe side is never marked transient).
		rows := append([]Tuple(nil), b.Rows...)
		select {
		case ins[k%len(ins)] <- rows:
		case <-ctx.Done():
			return
		}
		k++
	}
}

// worker probes the build table for each dispatched batch and emits
// the join output as chunks, ending each input batch with a last-marked
// chunk so the consumer can re-serialize batches in dispatch order.
func (j *ParallelHashJoinIter) worker(ctx context.Context, self int, in chan []Tuple, out chan phjChunk) {
	defer j.wg.Done()
	defer close(out)
	// A private encoder over the table's frozen pool: the scratch buffer
	// is per-worker, the pool is probed read-only via LookupKey.
	tbl, enc := j.tbl, NewKeyEncoder(j.tbl.in)
	var resFn func(Tuple) (bool, error)
	if j.residual != nil {
		// Compiled predicates keep per-instance scratch state: one per
		// worker, never shared.
		resFn = CompileBool(j.residual, j.schema)
	}
	send := func(c phjChunk) bool {
		select {
		case out <- c:
			if self < len(j.WorkerOut) && len(c.rows) > 0 {
				j.WorkerOut[self].Add(int64(len(c.rows)))
			}
			return true
		case <-ctx.Done():
			return false
		}
	}
	for rows := range in {
		// A fresh builder per chunk: its arena is never Reset again, so
		// the rows stay durable after crossing the channel. It starts at
		// one output row per probe row — all a 1:1 join needs; further
		// matches overflow onto the builder's usual ladder.
		arity := len(j.schema.Columns)
		bb := &BatchBuilder{arity: arity, arena: make([]Value, 0, len(rows)*arity), rows: make([]Tuple, 0, len(rows))}
		failed := false
		for _, t := range rows {
			bi, ok := tbl.lookup(t, j.probeIdx, enc)
			if !ok {
				continue
			}
			bkt := &tbl.buckets[bi]
			for mi := 0; mi <= len(bkt.rest); mi++ {
				bt := bkt.first
				if mi > 0 {
					bt = bkt.rest[mi-1]
				}
				l, r := t, bt
				if j.buildLeft {
					l, r = bt, t
				}
				row := bb.Concat(l, r)
				if resFn != nil {
					ok, err := resFn(row)
					if err != nil {
						bb.DropLast()
						// Flush the partial output, then the error, in
						// the same positions the serial join would.
						if bb.Len() > 0 {
							if !send(phjChunk{rows: bb.Batch().Rows}) {
								return
							}
						}
						send(phjChunk{err: err, last: true})
						failed = true
						break
					}
					if !ok {
						bb.DropLast()
					}
				}
				if bb.Len() >= DefaultBatchSize {
					if !send(phjChunk{rows: bb.Batch().Rows}) {
						return
					}
					bb = NewBatchBuilder(len(j.schema.Columns))
				}
			}
			if failed {
				break
			}
		}
		if failed {
			// The consumer stops at the error chunk; drain the inbox so
			// the dispatcher is never blocked on a dead worker.
			for range in {
			}
			return
		}
		if !send(phjChunk{rows: bb.Batch().Rows, last: true}) {
			return
		}
	}
}

// Next implements Iterator: it serves the workers' chunks in dispatch
// order, slicing to the consumer's max.
func (j *ParallelHashJoinIter) Next(max int) (Batch, error) {
	if max <= 0 {
		max = DefaultBatchSize
	}
	if j.ctx != nil {
		j.start()
	}
	for {
		if j.pos < len(j.cur) {
			n := min(len(j.cur)-j.pos, max)
			rows := j.cur[j.pos : j.pos+n]
			j.pos += n
			return Batch{Rows: rows}, nil
		}
		if j.exhausted || j.outs == nil {
			return Batch{}, nil
		}
		ch, ok := <-j.outs[j.nextBatch%len(j.outs)]
		if !ok {
			// Batch nextBatch was never dispatched: the probe stream
			// ended — or failed, in which case the error surfaces here,
			// after every dispatched batch's output, exactly where the
			// serial join would surface it.
			j.exhausted = true
			return Batch{}, j.dist.err()
		}
		if ch.err != nil {
			j.exhausted = true
			return Batch{}, ch.err
		}
		if ch.last {
			j.nextBatch++
		}
		j.cur, j.pos = ch.rows, 0
	}
}

// Close implements Iterator: cancel the exchange, wait for the dispatch
// and worker goroutines to exit, then close the probe child (single-use
// iterators must never see concurrent calls).
func (j *ParallelHashJoinIter) Close() error {
	if j.cancel != nil {
		j.cancel()
		j.cancel = nil
	}
	j.wg.Wait()
	j.tbl, j.outs, j.cur, j.dist, j.ctx = nil, nil, nil, nil, nil
	j.exhausted = true
	if j.probe == nil {
		return nil
	}
	err := j.probe.Close()
	j.probe = nil
	return err
}

// minRowsPerWorker is the exchange floor of the materialized cores: a
// worker is only worth its goroutine, WaitGroup hand-off and merge share
// when it gets at least this many rows (measured, see BENCH_baseline.json
// PR 13).
const minRowsPerWorker = 16384

// exchangeWorkers clamps a requested worker count so every worker gets
// at least minRowsPerWorker of the n rows; 1 means run serially.
func exchangeWorkers(n, par int) int {
	return max(min(par, n/minRowsPerWorker), 1)
}

// forChunks runs fn over par contiguous chunks [n*p/par, n*(p+1)/par) of
// n rows and returns when all are done: inline for par == 1, one
// goroutine per chunk otherwise.
func forChunks(n, par int, fn func(p, lo, hi int)) {
	if par == 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for p := 0; p < par; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			fn(p, n*p/par, n*(p+1)/par)
		}(p)
	}
	wg.Wait()
}

// firstError returns the error of the lowest chunk that failed: each
// worker records the earliest failure of its own chunk, so this is the
// first error in row order.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
