package wire

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/planner"
)

// TestLimitsRoundTrip: every governor limit the wire carries comes back
// from the request as it went in, through the JSON the client sends; the
// zero Limits sends no governor field at all; MaxTuples, which has no
// field, is refused by name.
func TestLimitsRoundTrip(t *testing.T) {
	lim := planner.Limits{Timeout: 1500 * time.Millisecond, MaxRows: 7, MaxConcurrentPerSource: 2,
		RetryBudget: 3, PartialResults: true}
	req, err := NewQueryRequest("SELECT 1", "c2", true, lim)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back QueryRequest
	if err := json.Unmarshal(body, &back); err != nil {
		t.Fatal(err)
	}
	if got, err := back.Limits(); err != nil || got != lim {
		t.Errorf("round trip of %+v through %s = %+v, %v", lim, body, got, err)
	}
	if back.SQL != "SELECT 1" || back.Context != "c2" || !back.Naive {
		t.Errorf("request %s lost its query", body)
	}

	req, _ = NewQueryRequest("SELECT 1", "c2", false, planner.Limits{})
	if body, _ := json.Marshal(req); string(body) != `{"sql":"SELECT 1","context":"c2"}` {
		t.Errorf("zero limits sent %s", body)
	}

	if _, err := NewQueryRequest("SELECT 1", "c2", false, planner.Limits{MaxTuples: 5}); err == nil ||
		!strings.Contains(err.Error(), "MaxTuples") {
		t.Errorf("MaxTuples: err = %v, want a refusal naming the field", err)
	}
}
