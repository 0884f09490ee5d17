package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/coin"
	"repro/internal/fixture"
	"repro/internal/wrapper"
)

// figure2 is the paper's own data as a federation, so the oracle can be
// held to the one answer the paper states.
func figure2() *federation {
	f := &federation{rates: map[string]float64{"JPY": fixture.RateJPYToUSD}, expenses: map[string]float64{}}
	for _, t := range fixture.R1Data().Tuples {
		f.r1 = append(f.r1, r1Row{t[0].S, t[1].N, t[2].S})
	}
	for _, t := range fixture.R2Data().Tuples {
		f.r2 = append(f.r2, r2Row{t[0].S, t[1].N})
		f.expenses[t[0].S] = t[1].N
	}
	return f
}

func TestOracleAgreesWithFigure2(t *testing.T) {
	want := answer{rows: 1, check: rowCheck("NTT", 9600000), total: 9600000}
	if got := figure2().expect(tJoin, 0); got != want {
		t.Fatalf("oracle answers Q1 with %+v, want <NTT, 9600000> = %+v", got, want)
	}
	rel, err := coin.Figure2System().Query(coin.PaperQ1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	v := newVerifier(tJoin, want)
	for _, tup := range rel.Tuples {
		v.row([]interface{}{tup[0].S, tup[1].N})
	}
	if err := v.err(); err != nil {
		t.Fatalf("Figure2System disagrees with the oracle: %v", err)
	}
}

var smokePlan = runPlan{window: 300 * time.Millisecond, segment: 100 * time.Millisecond, warmup: 100 * time.Millisecond, setups: 1}

// TestSmoke runs every workload end to end for a moment: all answers
// must agree with the oracle and every metric must be reported.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			m, err := runUntraced(context.Background(), w, 7, smokePlan)
			if err != nil {
				t.Fatal(err)
			}
			if m.failed != 0 {
				t.Fatalf("%d of %d requests failed: %v", m.failed, m.attempted, m.firstErr)
			}
			for _, def := range endToEnd {
				if v, ok := m.metrics[def.Name]; !ok || v <= 0 {
					t.Errorf("%s = %v, want a positive value", def.Name, v)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, name := range []string{"paper_repeat", "scale_stream"} {
		w, _ := workloadByName(name)
		m, err := runTraced(context.Background(), w, 7, smokePlan, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if m.failed != 0 {
			t.Fatalf("%s: %d of %d requests failed: %v", name, m.failed, m.attempted, m.firstErr)
		}
		for _, def := range perLayer {
			if _, ok := m.metrics[def.Name]; !ok {
				t.Errorf("%s: %s not reported", name, def.Name)
			}
		}
		if gap := m.metrics["ledger.gap_pct"]; gap > ledgerGapLimit {
			t.Errorf("%s: layers are %.1f%% off the median request", name, gap)
		}
	}
}

// post sends one query the way the client package does and returns the
// raw body.
func post(t *testing.T, base, path, sql string) []byte {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"sql": sql, "context": "c2"})
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d, err %v: %s", sql, resp.StatusCode, err, data)
	}
	return data
}

// TestDecoratorFidelity holds the tracing decorators to measuring the
// same program: on every workload the traced host must produce
// byte-identical plans and answers to the undecorated one, on both
// endpoints. A decorator that hid a capability (streaming, batch fetch,
// statistics, partitions, pushdown) would change one or the other.
func TestDecoratorFidelity(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			fed := newFederation(w.N, w.Currencies, 11)
			hosts := [2]*host{}
			for i, traced := range []bool{false, true} {
				h, err := newHost(w, fed, traced)
				if err != nil {
					t.Fatal(err)
				}
				defer h.close()
				hosts[i] = h
			}
			base := func(h *host) string {
				if h.rec != nil {
					return h.url + "/c0"
				}
				return h.url
			}
			for _, req := range hosts[0].texts {
				for _, path := range []string{"/api/query", "/api/query/stream"} {
					plain := post(t, base(hosts[0]), path, req.sql)
					traced := post(t, base(hosts[1]), path, req.sql)
					if !bytes.Equal(plain, traced) {
						t.Fatalf("%s %s: traced answer differs from the undecorated one", path, req.sql)
					}
				}
				var plans [2]string
				for i, h := range hosts {
					plan, err := h.sys.Explain(req.sql, "c2")
					if err != nil {
						t.Fatal(err)
					}
					plans[i] = plan
				}
				if plans[0] != plans[1] {
					t.Fatalf("%s: traced plan differs:\n%s\n--- undecorated:\n%s", req.sql, plans[1], plans[0])
				}
			}
		})
	}
}

// TestTapKeepsCapabilities checks the optional interfaces one by one.
func TestTapKeepsCapabilities(t *testing.T) {
	fed := newFederation(8, 4, 1)
	w, _ := workloadByName("paper_repeat")
	sys, err := buildSystem(w, fed, true)
	if err != nil {
		t.Fatal(err)
	}
	for rel, want := range map[string]bool{"r1": true, "r3": false} {
		src, err := sys.Catalog.WrapperFor(rel)
		if err != nil {
			t.Fatal(err)
		}
		_, streamer := src.(wrapper.Streamer)
		_, statser := src.(wrapper.Statser)
		if streamer != want || statser != want {
			t.Errorf("%s: tapped source has Streamer=%v Statser=%v, its wrapper has both=%v", rel, streamer, statser, want)
		}
	}
	src, _ := sys.Catalog.WrapperFor("r1")
	ctx := context.WithValue(context.Background(), traceKey{}, &reqTrace{})
	stream, err := src.(wrapper.Streamer).QueryStream(ctx, wrapper.SourceQuery{Relation: "r1"})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	if _, ok := stream.(wrapper.BatchStream); !ok {
		t.Error("a traced stream over a relational source lost BatchStream")
	}
}

func TestQuietReportsTheBestSegments(t *testing.T) {
	var p phase
	for i := 0; i < 800; i++ { // eight 1 s segments of 100 samples; all but the 3rd and 6th are disturbed
		s := sample{done: time.Duration(i) * 10 * time.Millisecond, latency: 5, ttfr: 4, rows: 3}
		if i/100 == 2 || i/100 == 5 {
			s.latency, s.ttfr = 2, 1
			if i%100 >= 90 {
				s.latency = 3
			}
		}
		p.samples = append(p.samples, s)
	}
	p.samples = append(p.samples, sample{done: 8100 * time.Millisecond, latency: 0.1}) // past the window
	got := p.quiet(8*time.Second, time.Second, 95)
	want := reading{n: 800, p50: 2, tail: 3, ttfr: 1, qps: 100, rowsPerSec: 300}
	if math.Abs(got.qps-want.qps) > 1e-9 || math.Abs(got.rowsPerSec-want.rowsPerSec) > 1e-9 {
		t.Fatalf("quiet rates = %v, %v, want %v, %v", got.qps, got.rowsPerSec, want.qps, want.rowsPerSec)
	}
	if got.qps, got.rowsPerSec = want.qps, want.rowsPerSec; got != want {
		t.Fatalf("quiet = %+v, want %+v", got, want)
	}
	if got := (phase{}).quiet(time.Second, time.Second, 95); got.n != 0 {
		t.Fatalf("quiet of nothing = %+v", got)
	}
}

func TestCoverage(t *testing.T) {
	spans := []span{{Start: 0, End: 10}, {Start: 5, End: 20}, {Start: 30, End: 40}, {Start: 90, End: 200}}
	covered, depth := coverage(spans, 0, 100)
	if covered != 40 || depth != 2 {
		t.Fatalf("coverage = %d at depth %d, want 40 at depth 2", covered, depth)
	}
}

func TestJudge(t *testing.T) {
	lat := metricDef{Name: "latency_ms_p50", Better: "lower", Bound: 0.05}
	qps := metricDef{Name: "qps", Better: "higher", Bound: 0.05}
	for _, c := range []struct {
		def        metricDef
		base, cand []float64
		want       string
	}{
		{lat, []float64{10}, []float64{10.4}, "PASS"},
		{lat, []float64{10}, []float64{10.6}, "REGRESSION"},
		{qps, []float64{100}, []float64{94}, "REGRESSION"},
		{qps, []float64{100}, []float64{120}, "PASS"},
		{lat, []float64{8, 10, 12, 14}, []float64{9, 10, 11, 13}, "UNRESOLVED"},
		{lat, []float64{8, 10, 12, 14}, []float64{5, 6, 7, 7.5}, "PASS"},
	} {
		if got := judge(c.def, c.base, c.cand); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.def.Name, c.base, c.cand, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json, which the driver
// reads, in step with spec.go, which the program runs.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) || strings.Join(file.Command, " ") != "bash bench/run.sh" {
		t.Errorf("command %v, paths %v", file.Command, file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, spec.go has %s: %s", i, file.Workloads[i], w.Name, w.Why)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in spec.go", len(got), kind, len(want))
		}
		for i, def := range want {
			g := got[i]
			if g.Name != def.Name || g.Unit != def.Unit || g.Better != def.Better ||
				bounded != (g.Bound != nil) || (bounded && *g.Bound != def.Bound) {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, spec.go has %+v", kind, i, g, def)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd, true)
	same("per_layer", file.PerLayer, metricDefs(true), false)
}
