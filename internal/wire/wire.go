// Package wire is the HTTP-tunneled protocol's format, shared by the
// server (internal/server) and its Go client (internal/client) and
// importing neither: the JSON records each endpoint reads and writes, the
// mapping between a query's governor limits and the request fields that
// carry them, and the row codec that writes and reads result rows byte for
// byte as encoding/json does.
//
//	POST /api/query         QueryRequest -> QueryResponse
//	POST /api/query/stream  QueryRequest -> NDJSON StreamRecords: header,
//	                        one record per row, trailing stats or error
//	POST /api/mediate       QueryRequest -> MediateResponse
//	POST /api/explain       QueryRequest -> ExplainResponse
//	GET  /api/schema        -> SchemaResponse
//
// Failures are an ErrorResponse with a non-200 status.
package wire

import (
	"fmt"
	"time"

	"repro/internal/planner"
)

// QueryRequest is the body of /api/query, /api/query/stream, /api/mediate
// and /api/explain.
type QueryRequest struct {
	SQL     string `json:"sql"`
	Context string `json:"context"`
	// Naive skips mediation (the paper's baseline behavior).
	Naive bool `json:"naive,omitempty"`
	// Timeout bounds the query session's wall clock, as a Go duration
	// string ("500ms", "2s"). Empty: no server-side deadline beyond the
	// connection's lifetime.
	Timeout string `json:"timeout,omitempty"`
	// MaxRows caps the rows delivered; the answer is truncated, not
	// failed. Zero: unlimited.
	MaxRows int `json:"max_rows,omitempty"`
	// MaxConcurrentPerSource caps the query session's in-flight fetches
	// against any single source, below the server's own per-source
	// dispatcher pools. Zero: the dispatcher defaults alone apply.
	MaxConcurrentPerSource int `json:"max_concurrent_per_source,omitempty"`
	// Analyze turns /api/explain into EXPLAIN ANALYZE: the branches are
	// actually executed and the rendered plans carry measured rows,
	// queries and cost next to the estimates. Both verbs plan under the
	// governor fields of the request.
	Analyze bool `json:"analyze,omitempty"`
	// Partial degrades instead of failing when a mediation branch is
	// felled by a source fault: the answer comes from the surviving
	// branches and the response carries a warning per dropped branch.
	// Default is fail-fast.
	Partial bool `json:"partial,omitempty"`
	// RetryBudget caps the retries the query session may spend across all
	// source operations. Zero: the server's per-operation retry policy
	// alone applies.
	RetryBudget int `json:"retry_budget,omitempty"`
}

// NewQueryRequest carries sql, the receiver context and the governor
// limits lim in a request. Limits.MaxTuples has no field on the wire, so a
// nonzero one is refused rather than dropped.
func NewQueryRequest(sql, context string, naive bool, lim planner.Limits) (QueryRequest, error) {
	if lim.MaxTuples != 0 {
		return QueryRequest{}, fmt.Errorf("wire: Limits.MaxTuples (%d) has no field in a query request", lim.MaxTuples)
	}
	req := QueryRequest{
		SQL: sql, Context: context, Naive: naive,
		MaxRows:                lim.MaxRows,
		MaxConcurrentPerSource: lim.MaxConcurrentPerSource,
		RetryBudget:            lim.RetryBudget,
		Partial:                lim.PartialResults,
	}
	if lim.Timeout > 0 {
		req.Timeout = lim.Timeout.String()
	}
	return req, nil
}

// Limits converts the request's governor fields to planner.Limits,
// refusing malformed ones.
func (r *QueryRequest) Limits() (planner.Limits, error) {
	var lim planner.Limits
	if r.Timeout != "" {
		d, err := time.ParseDuration(r.Timeout)
		if err != nil || d < 0 {
			return lim, fmt.Errorf("server: bad timeout %q (want a Go duration like \"2s\")", r.Timeout)
		}
		lim.Timeout = d
	}
	if r.MaxRows < 0 {
		return lim, fmt.Errorf("server: bad max_rows %d", r.MaxRows)
	}
	lim.MaxRows = r.MaxRows
	if r.MaxConcurrentPerSource < 0 {
		return lim, fmt.Errorf("server: bad max_concurrent_per_source %d", r.MaxConcurrentPerSource)
	}
	lim.MaxConcurrentPerSource = r.MaxConcurrentPerSource
	if r.RetryBudget < 0 {
		return lim, fmt.Errorf("server: bad retry_budget %d", r.RetryBudget)
	}
	lim.RetryBudget = r.RetryBudget
	lim.PartialResults = r.Partial
	return lim, nil
}

// ColumnInfo describes one result column.
type ColumnInfo struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// QueryResponse is the body returned by /api/query.
type QueryResponse struct {
	Columns     []ColumnInfo    `json:"columns"`
	Rows        [][]interface{} `json:"rows"`
	MediatedSQL string          `json:"mediatedSQL,omitempty"`
	Branches    int             `json:"branches,omitempty"`
	// Warnings lists mediation branches dropped by a partial-results run;
	// absent when the answer is complete.
	Warnings []planner.Warning `json:"warnings,omitempty"`
}

// StreamRecord is one NDJSON line of /api/query/stream. Type is "header"
// (first line: columns plus mediation metadata), "row" (one result row in
// Values), "stats" (trailing success record) or "error" (trailing failure
// record; the stream ends there).
type StreamRecord struct {
	Type        string        `json:"type"`
	Columns     []ColumnInfo  `json:"columns,omitempty"`
	MediatedSQL string        `json:"mediatedSQL,omitempty"`
	Branches    int           `json:"branches,omitempty"`
	Values      []interface{} `json:"values,omitempty"`
	Rows        int           `json:"rows,omitempty"`
	Error       string        `json:"error,omitempty"`
	// Warnings rides the trailing stats (or error) record of a
	// partial-results stream: one entry per mediation branch dropped.
	Warnings []planner.Warning `json:"warnings,omitempty"`
}

// MediateResponse is the body returned by /api/mediate.
type MediateResponse struct {
	MediatedSQL string `json:"mediatedSQL"`
	Branches    int    `json:"branches"`
}

// ExplainResponse is the body returned by /api/explain.
type ExplainResponse struct {
	Plan string `json:"plan"`
}

// SchemaResponse is the body returned by /api/schema.
type SchemaResponse struct {
	Relations map[string][]ColumnInfo `json:"relations"`
	Contexts  []string                `json:"contexts"`
}

// ErrorResponse carries failures as JSON.
type ErrorResponse struct {
	Error string `json:"error"`
}
