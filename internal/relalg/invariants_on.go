//go:build invariants

package relalg

// Runtime-assertion layer: the dynamic twin of the static analyzer suite
// in internal/analysis. The linters prove contract compliance where the
// code is simple enough to see through; this file catches what they
// cannot — violations that only materialize on a concrete execution path.
// Built only under `-tags invariants` (a dedicated CI job runs the tests
// with the tag and -race); invariants_off.go supplies the no-op twins for
// every other build.
//
// Three contracts are armed:
//
//   - Batch ownership (batchretain's dynamic twin): when a Transient
//     BatchBuilder recycles its arena on Reset, every recycled slot is
//     first overwritten with a poison Kind. A consumer that illegally
//     retained a row past its Next/Close window trips the poison the
//     moment it touches a value (Equal, Compare, SortKey, key encoding)
//     instead of silently computing with overwritten data.
//   - Iterator lifecycle (closebalance's dynamic twin): Checked wraps
//     pipeline roots (Collect, BuildStream) in a state machine
//     asserting Open-before-Next, no use after Close, single Close,
//     batches within the requested bound, rows matching the schema's
//     arity, and exhaustion stability (no rows after the empty batch).
//   - Interner scope: handles are dense 1..Size per pool; a handle
//     outside that range reached the pool from somewhere else (a
//     persisted or cross-pool handle — forbidden by intern.go's scope
//     rule).

import (
	"context"
	"fmt"
)

// InvariantsEnabled reports whether the runtime-assertion layer is
// compiled in (`go build -tags invariants`).
const InvariantsEnabled = true

// poisonKind marks a Value slot whose transient batch has been recycled.
// No valid Kind comes near it, so the poison can never collide with data.
const poisonKind Kind = 0xFF

// poisonValues overwrites recycled transient-arena slots so any retained
// alias fails loudly on first use.
func poisonValues(vals []Value) {
	for i := range vals {
		vals[i] = Value{K: poisonKind, S: "poisoned transient slot"}
	}
}

// checkLive panics when v is a poisoned transient-arena slot: some
// consumer kept a row from a transient batch past its Next/Close window.
func (v Value) checkLive() {
	if v.K == poisonKind {
		panic("relalg: use of a value from a recycled transient batch — a consumer " +
			"retained a row past its Next/Close window; copy rows with " +
			"append(Tuple(nil), row...) before buffering (see the batchretain analyzer)")
	}
}

// checkHandle panics when h cannot have come from in: pools hand out
// dense handles 1..Size, so anything outside that range crossed a pool
// boundary (or was persisted), which intern.go forbids.
func checkHandle(in *Interner, h uint32) {
	if h == 0 || h > uint32(len(in.ids)) {
		panic(fmt.Sprintf("relalg: interner handle %d outside pool of %d entries — "+
			"handles are scoped to one pool and must never be persisted", h, len(in.ids)))
	}
}

// Checked wraps it in the contract-asserting shim. Installed at pipeline
// roots, where the engine (not an operator) drives the lifecycle.
func Checked(it Iterator) Iterator { return &checkedIter{it: it} }

// checkedIter asserts the Iterator contract of iterator.go around an
// inner iterator.
type checkedIter struct {
	it        Iterator
	opened    bool
	closed    bool
	exhausted bool
	failed    bool
}

func (c *checkedIter) Schema() Schema { return c.it.Schema() }

func (c *checkedIter) Open(ctx context.Context) error {
	if c.opened {
		panic("relalg: iterator contract: Open called twice")
	}
	if c.closed {
		panic("relalg: iterator contract: Open after Close")
	}
	err := c.it.Open(ctx)
	if err == nil {
		c.opened = true
	}
	return err
}

func (c *checkedIter) Next(max int) (Batch, error) {
	if !c.opened {
		panic("relalg: iterator contract: Next before a successful Open")
	}
	if c.closed {
		panic("relalg: iterator contract: Next after Close")
	}
	b, err := c.it.Next(max)
	bound := max
	if bound <= 0 {
		bound = DefaultBatchSize
	}
	if len(b.Rows) > bound {
		panic(fmt.Sprintf("relalg: iterator contract: Next(%d) returned %d rows — "+
			"operators must never exceed the requested bound", max, len(b.Rows)))
	}
	if err != nil && len(b.Rows) > 0 {
		panic("relalg: iterator contract: an error must come with an empty batch")
	}
	if c.exhausted && len(b.Rows) > 0 {
		panic("relalg: iterator contract: non-empty batch after exhaustion")
	}
	if c.failed && err == nil && len(b.Rows) > 0 {
		panic("relalg: iterator contract: rows after an error")
	}
	if arity := len(c.it.Schema().Columns); arity > 0 {
		for _, r := range b.Rows {
			if len(r) != arity {
				panic(fmt.Sprintf("relalg: iterator contract: row arity %d does not "+
					"match schema arity %d", len(r), arity))
			}
		}
	}
	if err != nil {
		c.failed = true
	} else if len(b.Rows) == 0 {
		c.exhausted = true
	}
	return b, err
}

func (c *checkedIter) Close() error {
	if c.closed {
		panic("relalg: iterator contract: Close called twice")
	}
	if !c.opened {
		// Close after a failed Open is documented as a no-op; tolerate it
		// without touching the inner iterator.
		c.closed = true
		return nil
	}
	c.closed = true
	return c.it.Close()
}
