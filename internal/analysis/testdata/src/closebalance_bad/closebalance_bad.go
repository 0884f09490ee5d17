// Package fixture seeds closebalance violations: iterators and streams
// opened but not closed on every path.
package fixture

import (
	"context"
	"errors"

	"repro/internal/relalg"
	"repro/internal/wrapper"
)

// neverClosed drains but never releases.
func neverClosed(ctx context.Context, it relalg.Iterator) (int, error) {
	if err := it.Open(ctx); err != nil { // want "never closed on any path"
		return 0, err
	}
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

// leakOnError closes on the happy path but leaks when Next fails.
func leakOnError(ctx context.Context, it relalg.Iterator) (int, error) {
	if err := it.Open(ctx); err != nil {
		return 0, err
	}
	n := 0
	for {
		b, err := it.Next(64)
		if err != nil {
			return n, err // want "return leaks it"
		}
		if len(b.Rows) == 0 {
			break
		}
		n += len(b.Rows)
	}
	return n, it.Close()
}

// workerNoOwner opens a part iterator reached through a parameter and
// never closes it.
func workerNoOwner(ctx context.Context, subs []relalg.Iterator, p int) error {
	sub := subs[p]
	if err := sub.Open(ctx); err != nil { // want "never closed on any path"
		return err
	}
	for {
		b, err := sub.Next(64)
		if err != nil {
			return err
		}
		if len(b.Rows) == 0 {
			return nil
		}
	}
}

// exchangeOp is the retired exchange-worker shape: runPart opens a part
// iterator through a local alias of the operator's fields and leaves the
// Close to the operator's Close. The pass polices local handles, so the
// alias's Open must be balanced in runPart itself.
type exchangeOp struct {
	subs []relalg.Iterator
}

func (o *exchangeOp) runPart(ctx context.Context, p int) error {
	sub := o.subs[p]
	if err := sub.Open(ctx); err != nil { // want "never closed on any path"
		return err
	}
	for {
		b, err := sub.Next(64)
		if err != nil {
			return err
		}
		if len(b.Rows) == 0 {
			return nil
		}
	}
}

func (o *exchangeOp) Close() error {
	var err error
	for _, sub := range o.subs {
		if cerr := sub.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// streamNeverClosed acquires a TupleStream and drops it.
func streamNeverClosed(ctx context.Context, w wrapper.Wrapper, q wrapper.SourceQuery) error {
	st, err := wrapper.QueryStream(ctx, w, q) // want "never closed on any path"
	if err != nil {
		return err
	}
	_, ok, err := st.Next()
	if err != nil {
		return err
	}
	if !ok {
		return errors.New("empty")
	}
	return nil
}
