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

	"repro/coin"
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
	disablePushdown bool
	chunk           int // rows per source fetch (wrappertest.Chunked)
}

// plan names the knobs that choose the plan: configs that share them run
// the same plan and must agree row for row, order included.
type plan struct{ disableBatching, disablePushdown bool }

// configs crosses parallelism, the join algorithm and batching, cycling
// the source chunk width through 1, 7 and 1024 so every width meets both
// join algorithms. Pushdown is off in half of them: with it off, every
// filter a source could apply runs in the engine instead, so the
// wrappers' σ is held to relalg's. Which half is chosen so that each plan
// (batching × pushdown) still pairs a serial run with a parallel one and
// a hash join with a nested loop, and every pairing of join algorithm and
// parallelism meets both pushdown settings.
var configs = func() []knobs {
	var out []knobs
	widths := []int{1, 7, 1024}
	for _, batchOff := range []bool{false, true} {
		for _, nl := range []bool{false, true} {
			for _, par := range []int{1, 4} {
				pushOff := nl != (par == 4) != batchOff
				out = append(out, knobs{par, nl, batchOff, pushOff, widths[len(out)%len(widths)]})
			}
		}
	}
	return out
}()

// world is one generated federation: the engine's catalogs (one per
// chunk width), the installation the wire leg serves over HTTP
// (wire_test.go) and the evaluator's unrestricted view of the same data.
type world struct {
	ref  map[string]wrapper.Wrapper
	cats map[int]*planner.Catalog
	exs  map[knobs]*planner.Executor
	sys  *coin.System
	open atomic.Int64 // engine source streams not yet closed
}

func newWorld(rng *rand.Rand) *world {
	engine, ref := sources(rng)
	w := &world{ref: ref, cats: map[int]*planner.Catalog{}, exs: map[knobs]*planner.Executor{}}
	for _, k := range configs {
		if w.cats[k.chunk] == nil {
			w.cats[k.chunk] = planner.NewCatalog()
			w.addSources(w.cats[k.chunk], engine, k.chunk)
		}
	}
	w.sys = w.wireSystem(engine)
	return w
}

// addSources registers the engine's wrappers in cat, fetching chunk rows
// at a time and counted by w.open.
func (w *world) addSources(cat *planner.Catalog, engine []wrapper.Wrapper, chunk int) {
	for _, src := range engine {
		n := chunk
		if src.Source() == bigSource {
			n = max(n, 1024) // one fetch per row of big costs more than it finds
		}
		cat.MustAddSource(&balanced{Wrapper: wrappertest.NewChunked(src, n), open: &w.open})
	}
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
		ex.ForceNestedLoop, ex.DisableBatching, ex.DisablePushdown = k.forceNestedLoop, k.disableBatching, k.disablePushdown
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

// checkSeed generates a world and n queries from seed and checks each.
func checkSeed(t *testing.T, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := newWorld(rng)
	g := &qgen{rng: rng}
	for qi := 0; qi < n; qi++ {
		w.check(t, seed, g.query())
	}
}

// check holds the engine to the evaluator on stmt under every config, and
// every config of one plan to the others row for row, then runs the wire
// leg. After the query no source stream may stay open and no goroutine
// may outlive it. It returns the evaluator's answer.
func (w *world) check(t *testing.T, seed int64, stmt sqlparse.Statement) answer {
	t.Helper()
	goroutines := runtime.NumGoroutine()
	want, err := evaluate(context.Background(), w.source, stmt)
	if err != nil {
		t.Fatalf("seed %d: evaluator: %v\n%s", seed, err, stmt)
	}
	wantRows := render(want.rows, canon)
	if !ordered(stmt) {
		sort.Strings(wantRows)
	}
	same := map[plan][]string{}
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
		ex, p := render(got.Tuples, exact), plan{k.disableBatching, k.disablePushdown}
		if prev, ok := same[p]; !ok {
			same[p] = ex
		} else if d := diff(prev, ex); d != "" {
			t.Fatalf("seed %d %+v: answer differs, order or bits, from the first config with %+v\n%s\n%s",
				seed, k, p, stmt, d)
		}
		if open := w.open.Load(); open != 0 {
			t.Fatalf("seed %d %+v: %d source streams left open\n%s", seed, k, open, stmt)
		}
	}
	w.checkWire(t, seed, stmt, want)
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("seed %d: %d goroutines outlive the query (%d before)\n%s", seed, runtime.NumGoroutine(), goroutines, stmt)
		}
	}
	return want
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

// fixedCases stream big, many batches of it, through operators whose
// arenas are recycled between batches, which the generated queries rarely
// do (a, b and c fit one batch): a projection of big under ORDER BY (the
// sort must not let its input recycle); a ⋈ big with big first in FROM,
// so that it is the probe side and the join's output spans many batches
// into the projection; and that join as the transient probe side of a
// second join, with b.
var fixedCases = []string{
	"SELECT big.v AS c1, big.k AS c2 FROM big ORDER BY c1, c2",
	"SELECT big.v AS c1, a.s AS c2 FROM big, a WHERE big.k = a.k",
	"SELECT big.v AS c1, a.s AS c2, b.y AS c3 FROM big, a, b WHERE big.k = a.k AND a.s = b.s",
}

// fixedSeed generates the world the fixed cases run in: its a joins big
// on enough rows for the join's output to span several batches.
const fixedSeed = 3

// TestRefereeFixed runs the fixed cases through the referee, and checks
// that each answer still spans several batches.
func TestRefereeFixed(t *testing.T) {
	w := newWorld(rand.New(rand.NewSource(fixedSeed)))
	for _, q := range fixedCases {
		if want := w.check(t, fixedSeed, sqlparse.MustParse(q)); len(want.rows) <= 2*relalg.DefaultBatchSize {
			t.Errorf("%s: %d rows, want more than two batches", q, len(want.rows))
		}
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
