package main

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/coin"
	"repro/internal/planner"
)

func TestRunLocal(t *testing.T) {
	if err := run(t.Context(), "", "c2", coin.PaperQ1, queryConfig{showMediated: true}, planner.Limits{}); err != nil {
		t.Fatal(err)
	}
	if err := run(t.Context(), "", "c2", coin.PaperQ1, queryConfig{naive: true}, planner.Limits{}); err != nil {
		t.Fatal(err)
	}
	if err := run(t.Context(), "", "c2", "SELECT nope FROM nosuch", queryConfig{}, planner.Limits{}); err == nil {
		t.Error("bad query succeeded")
	}
	if err := run(t.Context(), "", "zzz", coin.PaperQ1, queryConfig{}, planner.Limits{}); err == nil {
		t.Error("bad context succeeded")
	}
}

func TestRunLocalStreamAndGovernors(t *testing.T) {
	if err := run(t.Context(), "", "c2", coin.PaperQ1, queryConfig{stream: true, showMediated: true}, planner.Limits{}); err != nil {
		t.Fatal(err)
	}
	if err := run(t.Context(), "", "c2", coin.PaperQ1, queryConfig{stream: true, naive: true}, planner.Limits{}); err != nil {
		t.Fatal(err)
	}
	if err := run(t.Context(), "", "c2", coin.PaperQ1, queryConfig{}, planner.Limits{Timeout: 30 * time.Second, MaxRows: 1}); err != nil {
		t.Fatal(err)
	}
	if err := run(t.Context(), "", "c2", coin.PaperQ1, queryConfig{}, planner.Limits{Timeout: time.Nanosecond}); err == nil {
		t.Error("expired timeout succeeded")
	}
}

func TestRunAgainstServer(t *testing.T) {
	sys := coin.Figure2System()
	ts := httptest.NewServer(sys.Handler())
	defer ts.Close()
	if err := run(t.Context(), ts.URL, "c2", coin.PaperQ1, queryConfig{showMediated: true}, planner.Limits{}); err != nil {
		t.Fatal(err)
	}
	if err := run(t.Context(), ts.URL, "c2", coin.PaperQ1, queryConfig{naive: true}, planner.Limits{}); err != nil {
		t.Fatal(err)
	}
	if err := run(t.Context(), ts.URL, "c2", coin.PaperQ1, queryConfig{stream: true, showMediated: true}, planner.Limits{}); err != nil {
		t.Fatal(err)
	}
	if err := run(t.Context(), ts.URL, "c2", coin.PaperQ1, queryConfig{stream: true, naive: true}, planner.Limits{}); err != nil {
		t.Fatal(err)
	}
	if err := run(t.Context(), ts.URL, "c2", coin.PaperQ1, queryConfig{}, planner.Limits{Timeout: 30 * time.Second, MaxRows: 5}); err != nil {
		t.Fatal(err)
	}
	if err := run(t.Context(), ts.URL, "c2", coin.PaperQ1, queryConfig{naive: true}, planner.Limits{Timeout: 30 * time.Second, MaxRows: 1}); err != nil {
		t.Fatal(err)
	}
	if err := run(t.Context(), "http://127.0.0.1:1", "c2", coin.PaperQ1, queryConfig{}, planner.Limits{}); err == nil {
		t.Error("dead server succeeded")
	}
}

// TestRunExplainAndAnalyze covers the -explain and -analyze flags in both
// the in-process and the server-backed modes.
func TestRunExplainAndAnalyze(t *testing.T) {
	if err := run(t.Context(), "", "c2", coin.PaperQ1, queryConfig{explain: true}, planner.Limits{}); err != nil {
		t.Fatal(err)
	}
	if err := run(t.Context(), "", "c2", coin.PaperQ1, queryConfig{analyze: true}, planner.Limits{}); err != nil {
		t.Fatal(err)
	}
	if err := run(t.Context(), "", "c2", "SELECT nope FROM nosuch", queryConfig{analyze: true}, planner.Limits{}); err == nil {
		t.Error("bad analyze succeeded")
	}
	sys := coin.Figure2System()
	ts := httptest.NewServer(sys.Handler())
	defer ts.Close()
	if err := run(t.Context(), ts.URL, "c2", coin.PaperQ1, queryConfig{explain: true}, planner.Limits{}); err != nil {
		t.Fatal(err)
	}
	if err := run(t.Context(), ts.URL, "c2", coin.PaperQ1, queryConfig{analyze: true}, planner.Limits{Timeout: 30 * time.Second}); err != nil {
		t.Fatal(err)
	}
}
