//go:build !invariants

package relalg

// This file is the zero-cost half of the runtime-assertion layer. The
// assertions themselves live in invariants_on.go behind `-tags
// invariants`: a CI job runs the suite with the tag (plus -race) so the
// batch-ownership, iterator-lifecycle and key-table contracts are
// exercised at runtime, while production builds pay nothing — every hook
// below compiles to an inlined no-op.

// InvariantsEnabled reports whether the runtime-assertion layer is
// compiled in (`go build -tags invariants`).
const InvariantsEnabled = false

// Checked returns it unchanged; with the invariants tag it wraps the
// iterator in a shim asserting the Iterator contract (lifecycle order,
// batch sizing, exhaustion stability, row arity).
func Checked(it Iterator) Iterator { return it }

// poisonValues marks recycled transient-arena slots; no-op without the
// tag.
func poisonValues([]Value) {}

// checkLive asserts the value is not a poisoned transient-arena slot;
// no-op without the tag.
func (Value) checkLive() {}

// checkTable asserts a key table's consistency; no-op without the tag.
func checkTable(*keyTable) {}
