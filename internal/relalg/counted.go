package relalg

import (
	"context"
	"sync/atomic"
)

// CountedIter counts the tuples that flow through it into an external
// atomic counter, adding no other behavior. The planner's EXPLAIN ANALYZE
// mode wraps pipeline stages with it to measure actual per-step and
// per-branch cardinalities; the counter is atomic because the observer
// may read it while the pipeline is still running.
type CountedIter struct {
	child Iterator
	n     *atomic.Int64
}

// NewCounted wraps child so every tuple it yields increments n.
func NewCounted(child Iterator, n *atomic.Int64) *CountedIter {
	return &CountedIter{child: child, n: n}
}

// Schema implements Iterator.
func (c *CountedIter) Schema() Schema { return c.child.Schema() }

// Open implements Iterator.
func (c *CountedIter) Open(ctx context.Context) error { return c.child.Open(ctx) }

// Next implements Iterator.
func (c *CountedIter) Next(max int) (Batch, error) {
	b, err := c.child.Next(max)
	if err == nil && !b.Empty() {
		c.n.Add(int64(len(b.Rows)))
	}
	return b, err
}

// Close implements Iterator.
func (c *CountedIter) Close() error { return c.child.Close() }

func (c *CountedIter) forward() (Iterator, int) { return c.child, -1 }
