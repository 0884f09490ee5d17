//go:build invariants

package refeval

// The reach census (relalg.ReachCensus) exists only under the invariants
// build, whose 7-row batches make the generated relations span batches.
// This file sorts after referee_test.go, so `go test` runs TestReferee's
// sweep first and TestRefereeReach reads the census it took.

import (
	"testing"

	"repro/internal/relalg"
)

// reached counts, per reach kind, the generated queries that showed it.
var reached = map[string]int{}

func init() {
	census = func(query func()) {
		relalg.ReachCensus()
		query()
		for kind := range relalg.ReachCensus() {
			reached[kind]++
		}
	}
}

// reachKinds are the reach kinds every sweep of TestReferee's seeds must
// show under the invariants build: each operator that keeps rows or
// recycles an arena pulls a second batch from an arena-built input, and
// each kind of arena hands out a second batch — the folded join's kept
// by its consumer, and the intermediate join's recycled under the probe
// that marks it. Without them a lifetime bug in that operator, or a
// wrong mark on its input, meets no poison.
var reachKinds = []string{
	"sort", "group-by", "distinct", "union", "probe", "keyless probe",
	"projection", "folded join", "transient join",
}

// TestRefereeReach is the reach census of TestReferee's sweep (which it
// runs first when it has not run): every reach kind must show in some
// query.
func TestRefereeReach(t *testing.T) {
	if len(reached) == 0 {
		TestReferee(t)
	}
	t.Logf("queries per reach kind: %v", reached)
	for _, kind := range reachKinds {
		if reached[kind] == 0 {
			t.Errorf("no query of the sweep reached %q", kind)
		}
	}
}
