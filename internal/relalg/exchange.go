package relalg

import "sync"

// This file holds what the one intra-query parallel operator of this
// package runs on: forChunks and the rows-per-worker floor behind
// SortIter.Par's chunk sort + order-preserving merge — the many-worker
// case of the one sort kernel (sortTuples in ops.go).
//
// Determinism rule: the partitioned sort produces output identical in
// content AND order to the serial sort, so plans never change results
// when the parallelism knob moves: contiguous chunks are sorted
// concurrently and merged under one comparator that is a strict total
// order (key columns by SortKey, then row index), so the merge is the
// serial sort by construction — for NaN keys too.
//
// Isolation rule: no key scratch buffer or transient batch crosses a
// worker boundary. The sort's input is drained into memory before the
// first worker starts, each worker writes only its own chunk of the key
// matrix and permutation, and the merge runs after every worker is done.

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
