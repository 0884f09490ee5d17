// Package fixture is the fixed twin of closebalance_bad: every open is
// balanced by a defer, a close on each path, or an ownership transfer.
package fixture

import (
	"context"

	"repro/internal/relalg"
	"repro/internal/wrapper"
)

// deferred balances with a single defer.
func deferred(ctx context.Context, it relalg.Iterator) (int, error) {
	if err := it.Open(ctx); err != nil {
		return 0, err
	}
	defer it.Close()
	n := 0
	for {
		b, err := it.Next(64)
		if err != nil {
			return n, err
		}
		if len(b.Rows) == 0 {
			return n, nil
		}
		n += len(b.Rows)
	}
}

// perPath closes before every return, Collect-style.
func perPath(ctx context.Context, it relalg.Iterator) (int, error) {
	if err := it.Open(ctx); err != nil {
		return 0, err
	}
	n := 0
	for {
		b, err := it.Next(64)
		if err != nil {
			it.Close()
			return n, err
		}
		if len(b.Rows) == 0 {
			break
		}
		n += len(b.Rows)
	}
	return n, it.Close()
}

// transfer hands the opened stream to the caller, who owns the Close.
func transfer(ctx context.Context, w wrapper.Wrapper, q wrapper.SourceQuery) (wrapper.TupleStream, error) {
	st, err := wrapper.QueryStream(ctx, w, q)
	if err != nil {
		return nil, err
	}
	return st, nil
}
