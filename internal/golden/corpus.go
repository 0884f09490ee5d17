package golden

// Corpus loading and execution. Each testdata/queries/*.sql file is one
// corpus entry: optional directive comments, then the SQL. Directives:
//
//	-- mode: engine | mediate | mediate-partial   (default engine)
//	-- receiver: c2                               (mediate modes)
//	-- ordered: true                              (force order-sensitive rows)
//
// A comment whose text before its first colon is one lowercase word is a
// directive, and an unknown one is refused rather than ignored.
//
// engine entries run on a fresh heterogeneous Fixture; mediate entries
// run the paper's Figure 2 system end to end (mediate-partial with its
// currency site down and PartialResults set, so the baseline pins the
// degraded answer and its dropped-branch warnings).

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/coin"
	"repro/internal/planner"
	"repro/internal/relalg"
	"repro/internal/sqlparse"
	"repro/internal/store"
)

// Query is one corpus entry.
type Query struct {
	Name     string // file name without .sql
	Mode     string // engine | mediate | mediate-partial
	Receiver string
	Ordered  bool
	SQL      string
}

// Result is one entry's observed behavior: everything the baseline pins.
type Result struct {
	Name     string
	SQL      string
	Plan     string
	Ordered  bool
	Header   string
	Rows     []string // rendered rows; sorted when !Ordered
	Warnings []string
}

// LoadCorpus reads every *.sql under dir, sorted by name.
func LoadCorpus(dir string) ([]Query, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []Query
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".sql") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		q, err := parseQueryFile(strings.TrimSuffix(e.Name(), ".sql"), string(raw))
		if err != nil {
			return nil, fmt.Errorf("golden: %s: %w", e.Name(), err)
		}
		out = append(out, q)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("golden: no *.sql files under %s", dir)
	}
	return out, nil
}

// parseQueryFile splits directive comments from the SQL text.
func parseQueryFile(name, raw string) (Query, error) {
	q := Query{Name: name, Mode: "engine"}
	var sqlLines []string
	for _, line := range strings.Split(raw, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "--") {
			body := strings.TrimSpace(strings.TrimPrefix(trimmed, "--"))
			key, val, ok := strings.Cut(body, ":")
			if !ok || !isDirectiveKey(key) {
				continue // plain comment
			}
			val = strings.TrimSpace(val)
			switch key {
			case "mode":
				switch val {
				case "engine", "mediate", "mediate-partial":
					q.Mode = val
				default:
					return Query{}, fmt.Errorf("unknown mode %q", val)
				}
			case "receiver":
				q.Receiver = val
			case "ordered":
				b, err := strconv.ParseBool(val)
				if err != nil {
					return Query{}, fmt.Errorf("bad ordered directive %q", val)
				}
				q.Ordered = b
			default:
				return Query{}, fmt.Errorf("unknown directive %q", key)
			}
			continue
		}
		if trimmed != "" {
			sqlLines = append(sqlLines, trimmed)
		}
	}
	q.SQL = strings.Join(sqlLines, "\n")
	if q.SQL == "" {
		return Query{}, fmt.Errorf("no SQL after directives")
	}
	if strings.HasPrefix(q.Mode, "mediate") && q.Receiver == "" {
		return Query{}, fmt.Errorf("mode %s needs a receiver directive", q.Mode)
	}
	return q, nil
}

// isDirectiveKey reports whether key is one lowercase word, which makes
// its comment line a directive.
func isDirectiveKey(key string) bool {
	return key != "" && strings.Trim(key, "abcdefghijklmnopqrstuvwxyz") == ""
}

// RunOptions hook a corpus run for the harness's self-tests.
type RunOptions struct {
	// Mutate, when non-nil, adjusts the fresh engine fixture before
	// planning (cost hooks, ablation toggles). Engine mode only.
	Mutate func(*Fixture)
}

// Run executes one corpus entry under ctx and captures its Result.
func Run(ctx context.Context, q Query) (*Result, error) { return RunWith(ctx, q, RunOptions{}) }

// RunWith is Run with self-test hooks.
func RunWith(ctx context.Context, q Query, opts RunOptions) (*Result, error) {
	switch q.Mode {
	case "engine":
		return runEngine(ctx, q, opts)
	case "mediate", "mediate-partial":
		return runMediate(ctx, q)
	default:
		return nil, fmt.Errorf("golden: %s: unknown mode %q", q.Name, q.Mode)
	}
}

// runEngine plans and executes against a fresh four-backend fixture,
// under one zero-limits session. The plan is rendered before execution,
// so the baseline pins the cold plan (no adaptive feedback in it).
func runEngine(ctx context.Context, q Query, opts RunOptions) (*Result, error) {
	fx, err := NewFixture(ctx)
	if err != nil {
		return nil, fmt.Errorf("golden: %s: fixture: %w", q.Name, err)
	}
	defer fx.Close()
	if opts.Mutate != nil {
		opts.Mutate(fx)
	}
	stmt, err := sqlparse.Parse(q.SQL)
	if err != nil {
		return nil, fmt.Errorf("golden: %s: parse: %w", q.Name, err)
	}
	sess := fx.Ex.NewSession(ctx, planner.Limits{})
	defer sess.Close()
	sels := sqlparse.Selects(stmt)
	var plan strings.Builder
	for i, sel := range sels {
		p, err := fx.Ex.PlanCtx(sess.Context(), sel)
		if err != nil {
			return nil, fmt.Errorf("golden: %s: planning branch %d: %w", q.Name, i+1, err)
		}
		if len(sels) > 1 {
			fmt.Fprintf(&plan, "branch %d:\n", i+1)
		}
		plan.WriteString(p.Explain())
	}
	rel, err := fx.Ex.ExecuteSession(sess, stmt)
	if err != nil {
		return nil, fmt.Errorf("golden: %s: executing: %w", q.Name, err)
	}
	ordered := q.Ordered || (len(sels) == 1 && len(sels[0].OrderBy) > 0)
	res := &Result{Name: q.Name, SQL: q.SQL, Plan: plan.String(), Ordered: ordered}
	res.fillRows(rel)
	return res, nil
}

// runMediate runs the paper's Figure 2 system: plans from System.Plan
// under zero limits, rows from the mediated execution. mediate-partial takes the currency
// site down and pins the degraded answer plus its warnings.
func runMediate(ctx context.Context, q Query) (*Result, error) {
	partial := q.Mode == "mediate-partial"
	sys := coin.Figure2System()
	if partial {
		sys = coin.Figure2SystemWith(downFetcher{})
	}
	plan, err := sys.Plan(ctx, q.SQL, q.Receiver, false, coin.QueryOptions{})
	if err != nil {
		return nil, fmt.Errorf("golden: %s: explain: %w", q.Name, err)
	}
	med, err := sys.Mediate(q.SQL, q.Receiver)
	if err != nil {
		return nil, fmt.Errorf("golden: %s: mediate: %w", q.Name, err)
	}
	rel, warns, err := sys.ExecuteWarnCtx(ctx, med,
		coin.QueryOptions{PartialResults: partial})
	if err != nil {
		return nil, fmt.Errorf("golden: %s: executing: %w", q.Name, err)
	}
	res := &Result{Name: q.Name, SQL: q.SQL, Plan: plan, Ordered: q.Ordered}
	res.fillRows(rel)
	for _, w := range warns {
		// The failure message is weather-dependent wording; the baseline
		// pins the structural fact: which branch lost which source.
		res.Warnings = append(res.Warnings, fmt.Sprintf("branch %d: source %s dropped", w.Branch, w.Source))
	}
	sort.Strings(res.Warnings)
	return res, nil
}

// fillRows renders the relation into the Result's header and row lines.
func (r *Result) fillRows(rel *relalg.Relation) {
	r.Header = strings.Join(store.FormatHeader(rel.Schema), " | ")
	for _, tup := range rel.Tuples {
		vals := make([]string, len(tup))
		for i, v := range tup {
			vals[i] = renderValue(v)
		}
		r.Rows = append(r.Rows, strings.Join(vals, " | "))
	}
	if !r.Ordered {
		sort.Strings(r.Rows)
	}
}

// renderValue renders one datum as a SQL-ish literal.
func renderValue(v relalg.Value) string {
	switch v.K {
	case relalg.KindNull:
		return "NULL"
	case relalg.KindNumber:
		return strconv.FormatFloat(v.N, 'f', -1, 64)
	case relalg.KindBool:
		if v.B {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	}
}
