package refeval

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/planner"
	"repro/internal/relalg"
	"repro/internal/sqlparse"
	"repro/internal/wrapper"
	"repro/internal/wrapper/wrappertest"
)

// knobs is one engine configuration a query runs under.
type knobs struct {
	parallelism     int
	forceNestedLoop bool
	disableBatching bool
	chunk           int // rows per source fetch (wrappertest.Chunked)
}

// configs crosses parallelism, the join algorithm and batching, cycling
// the source chunk width through 1, 7 and 1024 so every width meets both
// join algorithms. All four configs of one batching setting run the same
// plan, so they must agree row for row, order included.
var configs = func() []knobs {
	var out []knobs
	widths := []int{1, 7, 1024}
	for _, batchOff := range []bool{false, true} {
		for _, nl := range []bool{false, true} {
			for _, par := range []int{1, 4} {
				out = append(out, knobs{par, nl, batchOff, widths[len(out)%len(widths)]})
			}
		}
	}
	return out
}()

// world is one generated federation: the engine's catalogs (one per
// chunk width) and the evaluator's unrestricted view of the same data.
type world struct {
	ref  map[string]wrapper.Wrapper
	cats map[int]*planner.Catalog
	exs  map[knobs]*planner.Executor
	open atomic.Int64 // engine source streams not yet closed
}

func newWorld(rng *rand.Rand) *world {
	engine, ref := sources(rng)
	w := &world{ref: ref, cats: map[int]*planner.Catalog{}, exs: map[knobs]*planner.Executor{}}
	for _, k := range configs {
		if w.cats[k.chunk] != nil {
			continue
		}
		cat := planner.NewCatalog()
		for _, src := range engine {
			chunk := k.chunk
			if src.Source() == bigSource {
				chunk = max(chunk, 1024) // one fetch per row of big costs more than it finds
			}
			cat.MustAddSource(&balanced{Wrapper: wrappertest.NewChunked(src, chunk), open: &w.open})
		}
		w.cats[k.chunk] = cat
	}
	return w
}

func (w *world) source(rel string) (wrapper.Wrapper, error) {
	if s, ok := w.ref[rel]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("no relation %s", rel)
}

// run answers stmt on the engine under k.
func (w *world) run(k knobs, stmt sqlparse.Statement) (*relalg.Relation, error) {
	ex := w.exs[k]
	if ex == nil {
		ex = planner.NewExecutor(w.cats[k.chunk])
		ex.ForceNestedLoop, ex.DisableBatching = k.forceNestedLoop, k.disableBatching
		// Learned statistics would let one run's plan differ from the
		// next; every config must run the plan its batching setting gives.
		ex.AdaptiveStats = nil
		w.exs[k] = ex
	}
	sess := ex.NewSession(context.Background(), planner.Limits{MaxParallelism: k.parallelism})
	defer sess.Close()
	return ex.ExecuteSession(sess, stmt)
}

// balanced counts the source streams the engine holds open: every
// admission slot a scan takes is held by one, so a leaked slot shows as
// a stream still open after the query.
type balanced struct {
	wrapper.Wrapper
	open *atomic.Int64
}

func (b *balanced) QueryStream(ctx context.Context, q wrapper.SourceQuery) (wrapper.TupleStream, error) {
	s, err := wrapper.QueryStream(ctx, b.Wrapper, q)
	if err != nil {
		return nil, err
	}
	b.open.Add(1)
	return &balancedStream{TupleStream: s, open: b.open}, nil
}

type balancedStream struct {
	wrapper.TupleStream
	open   *atomic.Int64
	closed bool
}

func (s *balancedStream) NextBatch(max int) ([]relalg.Tuple, error) {
	return s.TupleStream.(wrapper.BatchStream).NextBatch(max)
}

func (s *balancedStream) Close() error {
	if !s.closed {
		s.closed = true
		s.open.Add(-1)
	}
	return s.TupleStream.Close()
}

// canon renders a value up to NOT DISTINCT: −0 as 0, every NaN alike.
func canon(v relalg.Value) string {
	switch v.K {
	case relalg.KindNull:
		return "NULL"
	case relalg.KindNumber:
		if math.IsNaN(v.N) {
			return "NaN"
		}
		return strconv.FormatFloat(v.N+0, 'g', -1, 64)
	case relalg.KindString:
		return strconv.Quote(v.S)
	}
	return strconv.FormatBool(v.B)
}

// exact renders a value bit for bit.
func exact(v relalg.Value) string {
	if v.K == relalg.KindNumber {
		return strconv.FormatUint(math.Float64bits(v.N), 16)
	}
	return canon(v)
}

func render(rows []relalg.Tuple, f func(relalg.Value) string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = f(v)
		}
		out[i] = strings.Join(parts, " | ")
	}
	return out
}

// ordered reports whether stmt fixes its row order (an ORDER BY over
// every select item).
func ordered(stmt sqlparse.Statement) bool {
	sel, ok := stmt.(*sqlparse.Select)
	return ok && len(sel.OrderBy) > 0
}

// checkSeed generates a world and n queries from seed and holds the
// engine to the evaluator under every config, and every config of one
// batching setting to the others row for row. After each query no
// source stream may stay open and no goroutine may outlive it.
func checkSeed(t *testing.T, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := newWorld(rng)
	g := &qgen{rng: rng}
	for qi := 0; qi < n; qi++ {
		stmt := g.query()
		goroutines := runtime.NumGoroutine()
		want, err := evaluate(context.Background(), w.source, stmt)
		if err != nil {
			t.Fatalf("seed %d: evaluator: %v\n%s", seed, err, stmt)
		}
		wantRows := render(want.rows, canon)
		if !ordered(stmt) {
			sort.Strings(wantRows)
		}
		same := map[bool][]string{}
		for _, k := range configs {
			got, err := w.run(k, stmt)
			if err != nil {
				t.Fatalf("seed %d %+v: engine: %v\n%s", seed, k, err, stmt)
			}
			gotRows := render(got.Tuples, canon)
			if !ordered(stmt) {
				sort.Strings(gotRows)
			}
			if d := diff(wantRows, gotRows); d != "" {
				t.Fatalf("seed %d %+v: engine and evaluator disagree\n%s\n%s", seed, k, stmt, d)
			}
			ex := render(got.Tuples, exact)
			if prev, ok := same[k.disableBatching]; !ok {
				same[k.disableBatching] = ex
			} else if d := diff(prev, ex); d != "" {
				t.Fatalf("seed %d %+v: answer differs, order or bits, from the first config with batching off=%v\n%s\n%s",
					seed, k, k.disableBatching, stmt, d)
			}
			if open := w.open.Load(); open != 0 {
				t.Fatalf("seed %d %+v: %d source streams left open\n%s", seed, k, open, stmt)
			}
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("seed %d: %d goroutines outlive the query (%d before)\n%s", seed, runtime.NumGoroutine(), goroutines, stmt)
			}
		}
	}
}

// diff describes the first difference between two renderings.
func diff(want, got []string) string {
	for i := 0; i < max(len(want), len(got)); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g || (i >= len(want)) != (i >= len(got)) {
			return fmt.Sprintf("%d rows want, %d got; first difference at row %d:\n  want %q\n  got  %q", len(want), len(got), i, w, g)
		}
	}
	return ""
}

// TestReferee runs a fixed set of seeds through the referee.
func TestReferee(t *testing.T) {
	seeds := int64(24)
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= seeds; seed++ {
		checkSeed(t, seed, 3)
	}
}

// FuzzReferee is the referee as a native fuzz target (make fuzz runs it
// under -race -tags invariants): the input seeds one world and three
// queries.
func FuzzReferee(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkSeed(t, seed, 3) })
}

// TestEvaluatorUsesOnlyValueTypes keeps the evaluator independent of the
// engine it referees: eval_test.go may name relalg's value, tuple and
// schema types and the value constructors, and nothing else of relalg,
// and must not import the planner.
func TestEvaluatorUsesOnlyValueTypes(t *testing.T) {
	allowed := map[string]bool{
		"Value": true, "Tuple": true, "Schema": true, "Column": true, "Kind": true,
		"KindNull": true, "KindNumber": true, "KindString": true, "KindBool": true,
		"Null": true, "NumV": true, "StrV": true, "BoolV": true,
	}
	file, err := parser.ParseFile(token.NewFileSet(), "eval_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range file.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(p, "repro/") &&
			p != "repro/internal/relalg" && p != "repro/internal/sqlparse" && p != "repro/internal/wrapper" {
			t.Errorf("the evaluator imports %s", p)
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == "relalg" && !allowed[sel.Sel.Name] {
				t.Errorf("the evaluator uses relalg.%s", sel.Sel.Name)
			}
		}
		return true
	})
}
