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
//     pipeline roots, and checkedAs operator inputs, in a state machine
//     asserting Open-before-Next, no use after Close, single Close,
//     batches within the bound, rows of the schema's arity and
//     exhaustion stability; the inputs also keep the reach census.
//   - Key-table consistency (keytable.go): after every hash-join build
//     and when DISTINCT closes or GROUP BY has grouped, the table's ids
//     are dense and in insertion order (their keys lie in the arena in id
//     order), every slot names a distinct id, and every id is found along
//     its own hash's probe sequence — so no lookup can miss a key the
//     table holds.

import (
	"context"
	"fmt"
	"sync"
)

// InvariantsEnabled reports whether the runtime-assertion layer is
// compiled in (`go build -tags invariants`).
const InvariantsEnabled = true

// DefaultBatchSize is 7 under the tag (1,024 otherwise), so ordinary test
// data spans batches and every transient arena is recycled, and poisoned,
// mid-stream.
const DefaultBatchSize = 7

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

// checkTable panics when t is inconsistent (see the file comment). As
// many slots are in use as there are ids and each id is found from its
// own key, so the slots name every id exactly once.
func checkTable(t *keyTable) {
	fail := func(format string, args ...any) {
		panic(fmt.Sprintf("relalg: key table: "+format, args...))
	}
	used := 0
	for _, s := range t.slots {
		used += int(min(s, 1))
	}
	if used != len(t.ents) {
		fail("%d slots in use for %d ids", used, len(t.ents))
	}
	for id := 1; id < len(t.ents); id++ {
		if p, l := t.ents[id-1], t.ents[id]; l.chunk < p.chunk || (l.chunk == p.chunk && l.off < p.off+p.n) {
			fail("id %d lies in the arena before id %d", id, id-1)
		}
	}
	for id := range int32(len(t.ents)) {
		if hashKey(t.key(id)) != t.ents[id].hash {
			fail("id %d's cached hash is stale", id)
		}
		if got := t.find(t.key(id)); got != id {
			fail("id %d is not on its probe sequence (found %d)", id, got)
		}
	}
}

// Checked wraps it in the contract-asserting shim. Installed at pipeline
// roots, where the engine (not an operator) drives the lifecycle.
func Checked(it Iterator) Iterator { return &checkedIter{it: it} }

// checkedAs is Checked around the input of an operator of kind, whose
// second pull from it feeds the reach census.
func checkedAs(kind string, it Iterator) Iterator { return &checkedIter{it: it, kind: kind} }

// reachSeen holds the reach kinds seen since ReachCensus last read them.
var reachMu, reachSeen = sync.Mutex{}, map[string]bool{}

// ReachCensus returns the reach kinds seen since its last call and
// forgets them. A second pull from an input that builds its rows in an
// arena (a projection or a join, found through the forwarders) shows the
// puller's kind ("sort", "group-by", "distinct", "union", "probe" or
// "keyless probe") and the builder's ("projection", "join" or "folded
// join", prefixed "transient " when the arena recycles): the pulls where
// the poison meets an operator that keeps a row of a recycled arena.
func ReachCensus() map[string]bool {
	reachMu.Lock()
	defer reachMu.Unlock()
	seen := reachSeen
	reachSeen = map[string]bool{}
	delete(seen, "") // a pipeline root's pull names no operator
	return seen
}

// noteReach records the kinds a second pull from c.it shows.
func (c *checkedIter) noteReach() {
	in := c.it
	for f, ok := in.(forwarder); ok; f, ok = in.(forwarder) {
		in, _ = f.forward()
	}
	var bb *BatchBuilder
	builder := "projection"
	switch x := in.(type) {
	case *ProjectIter:
		bb = x.bb
	case *HashJoinIter:
		bb, builder = x.bb, "join"
		if x.fns != nil {
			builder = "folded join"
		}
	default:
		return
	}
	if bb.Transient {
		builder = "transient " + builder
	}
	reachMu.Lock()
	defer reachMu.Unlock()
	reachSeen[builder], reachSeen[c.kind] = true, true
}

// checkedIter asserts the Iterator contract of iterator.go around an
// inner iterator.
type checkedIter struct {
	it        Iterator
	opened    bool
	closed    bool
	exhausted bool
	failed    bool
	kind      string // the puller, for the reach census
	pulls     int
}

func (c *checkedIter) Schema() Schema { return c.it.Schema() }

func (c *checkedIter) forward() (Iterator, int) { return c.it, -1 }

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
	} else if c.pulls++; c.pulls == 2 {
		c.noteReach()
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
