package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/datalog"
	"repro/internal/domain"
	"repro/internal/fixture"
	"repro/internal/relalg"
	"repro/internal/sqlparse"
)

// The referee of the shape road (shape.go): whatever Mediate answers —
// on a miss, on a hit, on a hit whose shape was solved for other literals
// — must be what MediateExact (export_test.go), which compiles every
// literal in place and memoises nothing, answers for the same text.

// shapeRegistries are the registries the referee's table draws on.
var shapeRegistries = map[string]func() *domain.Registry{
	"paper":    fixture.Registry,
	"jpy":      jpyRegistry,
	"multicol": multiColRegistry,
	"pivot":    pivotRegistry,
	"conflict": func() *domain.Registry { return fixture.ConflictRegistry(3) },
	"denyXYZ": func() *domain.Registry {
		reg := fixture.Registry()
		if err := reg.AddDenialText(`r1(N, Rev, C), C = "XYZ"`); err != nil {
			panic(err)
		}
		return reg
	},
	"denyNeg": func() *domain.Registry {
		reg := fixture.Registry()
		if err := reg.AddDenialText(`r1(N, Rev, C), Rev < 0`); err != nil {
			panic(err)
		}
		return reg
	},
}

// shapeCase is one query template; $1 $2 $3 are literal slots.
type shapeCase struct {
	reg, receiver, sql string
}

func paperCase(sql string) shapeCase { return shapeCase{"paper", "c2", sql} }

var shapeCases = []shapeCase{
	// The five templates of bench/spec.go.
	paperCase("SELECT r1.cname, r1.revenue FROM r1 WHERE r1.revenue > $1"),
	paperCase("SELECT rl.cname, rl.revenue FROM r1 rl, r2 WHERE rl.cname = r2.cname AND rl.revenue > r2.expenses AND rl.revenue > $1"),
	paperCase("SELECT SUM(r1.revenue) AS total FROM r1 WHERE r1.revenue > $1"),
	paperCase("SELECT r1.cname, r1.revenue FROM r1 WHERE r1.revenue > $1 ORDER BY r1.revenue DESC"),
	paperCase("SELECT r2.cname, r2.expenses FROM r2 WHERE r2.expenses > $1"),

	// The golden corpus's mediate entries (22/24 are PaperQ1, 23, 32).
	paperCase(fixture.PaperQ1),
	paperCase("SELECT r1.cname, r1.revenue FROM r1 WHERE r1.revenue > 1000000"),
	paperCase(fixture.PaperQ1 + " ORDER BY rl.cname"),

	// Every text the other tests of this package mediate.
	{"jpy", "c_jpy", "SELECT r2.cname, r2.expenses FROM r2"},
	{"jpy", "c_jpy", "SELECT r1.cname, r1.revenue FROM r1"},
	{"multicol", "c2", "SELECT j.cname, j.revenue - j.expenses AS profit FROM jp_fin j WHERE j.revenue > j.expenses"},
	paperCase("SELECT a.cname FROM r2 a, r2 b WHERE a.cname = b.cname AND a.expenses > b.expenses"),
	paperCase("SELECT r1.cname FROM r1, r2 WHERE r1.revenue * 2 > r2.expenses + 1000"),
	paperCase("SELECT r3.fromCur, r3.rate FROM r3 WHERE r3.toCur = 'USD'"),
	paperCase("SELECT r2.cname, r2.expenses FROM r2 WHERE r2.expenses > 2000000"),
	paperCase("SELECT r1.cname, r1.revenue FROM r1 WHERE r1.currency = 'JPY'"),
	paperCase("SELECT r1.revenue FROM r1 WHERE r1.currency = 'USD'"),
	paperCase("SELECT * FROM r1"),
	paperCase("SELECT r1.cname FROM r1 WHERE r1.currency = 'USD' OR r1.currency = 'JPY'"),
	paperCase("SELECT r2.cname FROM r2 WHERE NOT (r2.expenses > 100 AND r2.cname = 'IBM')"),
	paperCase("SELECT SUM(r1.revenue) AS total FROM r1"),
	paperCase("SELECT r1.currency, COUNT(*) AS n, SUM(r1.revenue) AS total FROM r1 GROUP BY r1.currency HAVING COUNT(*) > 0 ORDER BY total DESC"),
	paperCase("SELECT r2.cname FROM r2 ORDER BY r2.expenses DESC LIMIT 1"),
	paperCase("SELECT r1.cname, r1.revenue FROM r1 ORDER BY r1.revenue DESC"),
	paperCase("SELECT r1.cname FROM r1 ORDER BY r1.revenue"),
	paperCase("SELECT r1.cname FROM r1 WHERE r1.currency = 'USD' AND r1.currency = 'JPY'"),
	paperCase("SELECT r1.cname FROM r1 WHERE r1.currency = 'USD' UNION SELECT r2.cname FROM r2"),
	paperCase("SELECT x.cname FROM nosuch x"),
	paperCase("SELECT r1.nope FROM r1"),
	paperCase("SELECT cname FROM r1, r2"),
	paperCase("SELECT zzz FROM r1"),
	paperCase("SELECT r1.cname FROM r1, r1"),
	paperCase("SELECT r1.cname FROM r1 WHERE r1.cname IS NULL"),
	paperCase("SELECT r1.cname FROM r1 WHERE SUM(r1.revenue) > 1"),
	paperCase("SELECT r1.cname, SUM(r1.revenue) FROM r1"),
	{"paper", "nope", fixture.PaperQ1},
	{"conflict", "recv", "SELECT wide.val FROM wide"},
	{"denyXYZ", "c2", "SELECT r1.cname FROM r1 WHERE r1.currency = 'XYZ'"},
	{"denyXYZ", "c2", fixture.PaperQ1},
	{"denyNeg", "c2", fixture.PaperQ1},
	{"denyNeg", "c2", "SELECT r1.cname FROM r1 WHERE r1.revenue = -5"},
	{"pivot", "c_chf", "SELECT r1.cname, r1.revenue FROM r1 WHERE r1.currency = 'GBP'"},
	{"pivot", "c_chf", "SELECT r1.revenue FROM r1 WHERE r1.currency = 'CHF'"},

	// AND: duplicates when $1 = $2, the residue's sort follows the values.
	paperCase("SELECT r1.cname FROM r1 WHERE r1.revenue > $1 AND r1.revenue > $2"),
	paperCase("SELECT r1.cname FROM r1, r2 WHERE $1 < r1.revenue AND r1.revenue > r2.expenses AND r1.revenue > $2 AND r1.revenue <= $3"),
	// Complements: x > 5 AND x <= 5 contradicts, so every branch goes.
	paperCase("SELECT r1.cname FROM r1 WHERE r1.revenue > $1 AND r1.revenue <= $2"),
	paperCase("SELECT r2.cname FROM r2 WHERE r2.expenses >= $1 AND r2.expenses < $2 AND r2.expenses > $3"),
	// OR (parameters cross a query-local clause and are renamed) and NOT.
	paperCase("SELECT r1.cname FROM r1 WHERE r1.revenue > $1 OR r1.revenue < $2"),
	paperCase("SELECT r1.cname FROM r1 WHERE r1.currency = 'USD' OR r1.revenue > $1 AND r1.revenue < $2"),
	paperCase("SELECT r2.cname FROM r2 WHERE NOT (r2.expenses > $1 AND r2.cname = 'IBM')"),
	paperCase("SELECT r1.cname FROM r1 WHERE NOT (r1.revenue > $1 OR NOT r1.revenue < $2) AND r1.revenue >= $3"),
	// A ground side: decidable both ways once the literal is known.
	paperCase("SELECT r2.cname FROM r2 WHERE 2 * 3 < $1 AND r2.expenses > $2"),
	paperCase("SELECT r2.cname FROM r2 WHERE $1 < $2"),
	paperCase("SELECT r2.cname FROM r2 WHERE $1 < 6 OR r2.expenses > $2"),
	paperCase("SELECT r1.cname FROM r1 WHERE r1.cname > 'A' AND 'B' < $1 AND r1.revenue > $2"),
	// The number of branches, hence where ORDER BY runs, follows the literals.
	paperCase("SELECT r1.cname FROM r1 WHERE r1.currency = 'USD' AND $1 < 6 OR r1.currency = 'JPY' AND $2 < 6 ORDER BY r1.revenue LIMIT 2"),
	// Literals that are not parameters: they stay in the key.
	paperCase("SELECT r1.cname FROM r1 WHERE r1.revenue > 2 * $1 AND r1.revenue < $2 + 0"),
	paperCase("SELECT r1.cname FROM r1 WHERE r1.revenue = $1"),
	paperCase("SELECT r1.cname FROM r1 WHERE r1.cname >= 'K$1' AND r1.revenue > $2"),
	paperCase("SELECT r1.cname FROM r1 WHERE r1.revenue <> $1 AND r1.revenue > -$2"),
	paperCase("SELECT r1.cname, r1.revenue + $1 AS bumped FROM r1, r2 WHERE r1.revenue > -r2.expenses AND r1.revenue > $2"),
	// Sorting against constants a context supplies; one shape asked of
	// two receivers of one registry.
	{"jpy", "c_jpy", "SELECT r2.cname FROM r2 WHERE r2.expenses > $1 AND r2.expenses < $2"},
	{"jpy", "c2", "SELECT r2.cname FROM r2 WHERE r2.expenses > $1 AND r2.expenses < $2"},
	{"jpy", "c2", "SELECT r1.cname, r1.revenue FROM r1"},
	{"jpy", "c_jpy", "SELECT r1.cname FROM r1, r2 WHERE r1.revenue > $1 AND r1.revenue > r2.expenses AND r2.expenses <= $2"},
	{"multicol", "c2", "SELECT j.cname FROM jp_fin j WHERE j.revenue - j.expenses > $1 AND j.revenue > j.expenses AND j.expenses > $2"},
	// Aliases, self-joins, *.
	paperCase("SELECT a.cname FROM r2 a, r2 b WHERE a.cname = b.cname AND a.expenses > b.expenses AND b.expenses > $1 AND a.expenses > $2"),
	paperCase("SELECT * FROM r1 x WHERE x.revenue >= $1"),
	paperCase("SELECT x.*, r2.expenses FROM r1 x, r2 WHERE x.cname = r2.cname AND x.revenue > r2.expenses AND r2.expenses > $1"),
	// GROUP BY + HAVING ($2 is HAVING's: not a parameter).
	paperCase("SELECT r1.currency, COUNT(*) AS n, SUM(r1.revenue) AS total FROM r1 WHERE r1.revenue > $1 GROUP BY r1.currency HAVING COUNT(*) > $2 ORDER BY total DESC LIMIT 3"),
	// ORDER BY / LIMIT / DISTINCT: one branch, several, and the error.
	paperCase("SELECT r2.cname FROM r2 WHERE r2.expenses > $1 ORDER BY r2.expenses DESC LIMIT 1"),
	paperCase("SELECT DISTINCT r1.cname, r1.revenue FROM r1 WHERE r1.revenue > $1 ORDER BY r1.revenue DESC LIMIT 2"),
	paperCase("SELECT r1.cname FROM r1 WHERE r1.revenue > $1 ORDER BY r1.revenue"),
	// UNION: each arm has its own shape.
	paperCase("SELECT r1.cname FROM r1 WHERE r1.revenue > $1 UNION SELECT r2.cname FROM r2 WHERE r2.expenses > $2"),
	paperCase("SELECT r2.cname FROM r2 WHERE r2.expenses > $1 UNION ALL SELECT r2.cname FROM r2 WHERE r2.expenses > $2"),
	// The denial and pivot registries, the branch-doubling registry.
	{"denyXYZ", "c2", "SELECT r1.cname FROM r1 WHERE r1.currency = 'XYZ' AND r1.revenue > $1"},
	{"denyXYZ", "c2", "SELECT r1.cname FROM r1 WHERE r1.revenue > $1 AND r1.revenue <= $2"},
	{"denyNeg", "c2", "SELECT r1.cname FROM r1 WHERE r1.revenue < $1"},
	{"denyNeg", "c2", "SELECT r1.cname FROM r1 WHERE r1.revenue = -5 AND r1.revenue < $1"},
	{"pivot", "c_chf", "SELECT r1.cname, r1.revenue FROM r1 WHERE r1.currency = 'GBP' AND r1.revenue > $1"},
	{"pivot", "c_chf", "SELECT r1.cname FROM r1 WHERE r1.revenue > $1 AND r1.revenue <= $2"},
	{"conflict", "recv", "SELECT wide.val FROM wide WHERE wide.val > $1 AND wide.val >= $2"},
}

// shapeVectors are chosen for what in a derivation depends on the
// literals: equal values (duplicates, complements), both orders of two
// values, both sides of the ground 6, zero, negatives, fractions, sizes
// the fixture's data sits between.
var shapeVectors = [][3]float64{
	{5, 5, 5},
	{7, 5, 6},
	{5, 7, 3},
	{0, 0, -1},
	{-5, 2.5, 1e9},
	{1000000, 2000000, 3},
	{6, 6.5, 5.5},
}

// fill renders a template with one literal vector.
func (c shapeCase) fill(v [3]float64) string {
	sql := c.sql
	for i, x := range v {
		sql = strings.ReplaceAll(sql, "$"+strconv.Itoa(i+1), strconv.FormatFloat(x, 'f', -1, 64))
	}
	return sql
}

// liveHeap returns the bytes reachable after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// constraintTexts renders what of a solution the shape road rebuilds.
func constraintTexts(sol datalog.Solution) []string {
	out := make([]string, len(sol.Constraints))
	for i, c := range sol.Constraints {
		out[i] = c.String()
	}
	return out
}

// diffMediation reports how got departs from the oracle's want ("" when
// it does not).
func diffMediation(got, want *Mediation, gotErr, wantErr error) string {
	if gotErr != nil || wantErr != nil {
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			return fmt.Sprintf("error %v, oracle %v", gotErr, wantErr)
		}
		return ""
	}
	if len(got.Branches) != len(want.Branches) || len(got.Solutions) != len(want.Solutions) {
		return fmt.Sprintf("%d branches / %d solutions, oracle %d / %d:\n%s\noracle:\n%s",
			len(got.Branches), len(got.Solutions), len(want.Branches), len(want.Solutions), got.SQL(), want.SQL())
	}
	if got.UnionAll != want.UnionAll || got.Receiver != want.Receiver || got.Original != want.Original {
		return fmt.Sprintf("UnionAll/Receiver/Original %v %q, oracle %v %q", got.UnionAll, got.Receiver, want.UnionAll, want.Receiver)
	}
	if !reflect.DeepEqual(got.Post, want.Post) {
		return fmt.Sprintf("Post %+v, oracle %+v", got.Post, want.Post)
	}
	if got.Post != nil && got.Post == want.Post {
		return "Post is shared with the oracle"
	}
	if got.SQL() != want.SQL() {
		return fmt.Sprintf("SQL:\n%s\noracle:\n%s", got.SQL(), want.SQL())
	}
	if got.ExplainText() != want.ExplainText() {
		return fmt.Sprintf("ExplainText:\n%s\noracle:\n%s", got.ExplainText(), want.ExplainText())
	}
	for i := range want.Solutions {
		if g, w := constraintTexts(got.Solutions[i]), constraintTexts(want.Solutions[i]); !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("solution %d constraints %v, oracle %v", i, g, w)
		}
	}
	return ""
}

// referee holds one long-lived Mediator per registry (so shapes are hit
// with literals they were not solved for, and one shape is asked of two
// receivers) and one oracle beside it.
type referee struct {
	mu      sync.Mutex
	shared  map[string]*Mediator
	oracles map[string]*Mediator
}

func newReferee() *referee {
	return &referee{shared: map[string]*Mediator{}, oracles: map[string]*Mediator{}}
}

// check mediates one text every way the road can (a miss, the hit after
// it, a hit on the long-lived mediator) and holds each to the oracle.
func (r *referee) check(t *testing.T, c shapeCase, sql string) {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.shared[c.reg] == nil {
		r.shared[c.reg] = New(shapeRegistries[c.reg]())
		r.oracles[c.reg] = New(shapeRegistries[c.reg]())
	}
	shared, oracle := r.shared[c.reg], r.oracles[c.reg]
	fresh := New(shapeRegistries[c.reg]())

	want, wantErr := oracle.MediateExact(stmt, c.receiver)
	for _, run := range []struct {
		name string
		m    *Mediator
	}{{"miss", fresh}, {"hit", fresh}, {"shared", shared}} {
		got, gotErr := run.m.Mediate(stmt, c.receiver)
		if d := diffMediation(got, want, gotErr, wantErr); d != "" {
			t.Errorf("%s [%s, receiver %s, %s]: %s", sql, c.reg, c.receiver, run.name, d)
		}
	}
}

func TestShapeRoadMatchesExactRoad(t *testing.T) {
	r := newReferee()
	for _, c := range shapeCases {
		for _, v := range shapeVectors {
			r.check(t, c, c.fill(v))
			if !strings.Contains(c.sql, "$") {
				break // no slots: one text
			}
		}
	}
	// The long-lived mediators answered from shapes, not from texts: the
	// paper registry saw several hundred texts under c2.
	if n := r.shared["paper"].ShapeCount("c2"); n == 0 || n > MaxShapes {
		t.Errorf("paper/c2 holds %d shapes, want 1..%d", n, MaxShapes)
	}
}

// TestShapeKey pins what a shape is: parameters zeroed in the key and
// listed in compile order; every other literal left in the key.
func TestShapeKey(t *testing.T) {
	for _, c := range []struct {
		sql, key string
		lits     []float64
	}{
		{"SELECT r1.cname FROM r1 WHERE r1.revenue > 5", "SELECT r1.cname FROM r1 WHERE r1.revenue > 0", []float64{5}},
		{"SELECT r1.cname FROM r1 WHERE 3 <= r1.revenue AND NOT (r1.revenue >= 9 OR 1 < 2)",
			"SELECT r1.cname FROM r1 WHERE 0 <= r1.revenue AND NOT (r1.revenue >= 0 OR 0 < 0)", []float64{3, 9, 1, 2}},
		{"SELECT r1.cname FROM r1 WHERE r1.revenue > -5", "SELECT r1.cname FROM r1 WHERE r1.revenue > 0", []float64{-5}}, // the parser folds -5 into one literal
		{"SELECT r1.cname FROM r1 WHERE r1.revenue > -r1.revenue", "SELECT r1.cname FROM r1 WHERE r1.revenue > -r1.revenue", nil},
		{"SELECT r1.cname FROM r1 WHERE r1.revenue > 2 * 7", "SELECT r1.cname FROM r1 WHERE r1.revenue > 2 * 7", nil},
		{"SELECT r1.cname FROM r1 WHERE r1.revenue = 5 AND r1.revenue <> 6", "SELECT r1.cname FROM r1 WHERE r1.revenue = 5 AND r1.revenue <> 6", nil},
		{"SELECT r1.cname FROM r1 WHERE r1.cname > 'A'", "SELECT r1.cname FROM r1 WHERE r1.cname > 'A'", nil},
		{"SELECT r1.revenue + 1 FROM r1 GROUP BY r1.revenue HAVING COUNT(*) > 4 LIMIT 3", "SELECT r1.revenue + 1 FROM r1 GROUP BY r1.revenue HAVING COUNT(*) > 4 LIMIT 3", nil},
	} {
		stmt, err := sqlparse.Parse(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		key, lits := shapeOf(stmt.(*sqlparse.Select))
		if key != c.key || !reflect.DeepEqual(lits, c.lits) {
			t.Errorf("shapeOf(%s) = %q %v, want %q %v", c.sql, key, lits, c.key, c.lits)
		}
		if stmt.String() != c.sql {
			t.Errorf("shapeOf changed its argument: %s", stmt.String())
		}
	}
}

// FuzzMediateShape drives the referee's table with arbitrary literals.
// The mediators live across inputs, so most inputs are hits on a shape
// solved for other literals.
func FuzzMediateShape(f *testing.F) {
	for i := range shapeCases {
		v := shapeVectors[i%len(shapeVectors)]
		f.Add(i, v[0], v[1], v[2])
	}
	r := newReferee()
	f.Fuzz(func(t *testing.T, i int, a, b, c float64) {
		for _, x := range []float64{a, b, c} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Skip("not a literal the parser produces")
			}
		}
		if i < 0 {
			i = -(i + 1)
		}
		tc := shapeCases[i%len(shapeCases)]
		sql := tc.fill([3]float64{a, b, c})
		if _, err := sqlparse.Parse(sql); err != nil {
			t.Skip(err)
		}
		r.check(t, tc, sql)
	})
}

// mustMediate mediates sql or fails the test.
func mustMediate(t *testing.T, m *Mediator, sql, receiver string) *Mediation {
	t.Helper()
	med, err := m.MediateSQL(sql, receiver)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return med
}

// TestShapeMemoReadsLimitsPerRequest: MaxBranches and MaxDepth are the
// request's, not the cached shape's.
func TestShapeMemoReadsLimitsPerRequest(t *testing.T) {
	const sql = "SELECT r1.cname FROM r1 WHERE r1.revenue > 5 AND 1 < 2"
	m := paperMediator()
	if n := len(mustMediate(t, m, sql, "c2").Branches); n != 3 {
		t.Fatalf("branches = %d", n)
	}
	m.MaxBranches = 2
	if _, err := m.MediateSQL(sql, "c2"); err == nil || !strings.Contains(err.Error(), "exceeds 2 branches") {
		t.Errorf("MaxBranches lowered after the shape was cached: err = %v", err)
	}
	m.MaxBranches = 3
	mustMediate(t, m, sql, "c2")

	m.MaxDepth = 1
	if _, err := m.MediateSQL(sql, "c2"); err == nil || !strings.Contains(err.Error(), "depth") {
		t.Errorf("MaxDepth lowered after the shape was cached: err = %v", err)
	}
	m.MaxDepth = 0
	if plain := mustMediate(t, m, sql, "c2").SQL(); strings.Contains(plain, "1 < 2") {
		t.Errorf("entailed comparison survived:\n%s", plain)
	}
	if n := m.ShapeCount("c2"); n != 1 {
		t.Errorf("one text, %d shapes", n)
	}
}

// TestShapeMemoBounds: the memo is bounded in entries and in bytes per
// entry, and the live heap does not grow with the shapes seen.
func TestShapeMemoBounds(t *testing.T) {
	m := paperMediator()
	distinct := func(i int) string { // <> literals are not parameters: a shape each
		return fmt.Sprintf("SELECT r1.cname FROM r1 WHERE r1.revenue > 5 AND r1.revenue <> %d", i)
	}
	for i := 0; i < MaxShapes; i++ {
		mustMediate(t, m, distinct(i), "c2")
	}
	if n := m.ShapeCount("c2"); n != MaxShapes {
		t.Fatalf("%d shapes after %d distinct ones", n, MaxShapes)
	}
	before := liveHeap()
	for i := MaxShapes; i < 11*MaxShapes; i++ {
		mustMediate(t, m, distinct(i), "c2")
		if n := m.ShapeCount("c2"); n > MaxShapes {
			t.Fatalf("%d shapes held, cap %d", n, MaxShapes)
		}
	}
	if after := liveHeap(); after > before+before/10+(64<<10) {
		t.Errorf("live heap %d -> %d bytes over %d more shapes", before, after, 10*MaxShapes)
	}
	// Eviction makes room for the newcomer, never takes it.
	held := m.ShapeCount("c2")
	mustMediate(t, m, distinct(11*MaxShapes-1), "c2")
	if n := m.ShapeCount("c2"); n != held {
		t.Errorf("the newest shape was not held: %d -> %d shapes", held, n)
	}

	// An over-long statement is answered and not retained.
	long := "SELECT r1.cname FROM r1 WHERE r1.revenue > 1"
	for i := 0; len(long) <= MaxShapeText; i++ {
		long += fmt.Sprintf(" AND r1.revenue <> %d", i)
	}
	m = paperMediator()
	if n := len(mustMediate(t, m, long, "c2").Branches); n != 3 {
		t.Errorf("over-long statement: %d branches", n)
	}
	if n := m.ShapeCount("c2"); n != 0 {
		t.Errorf("over-long statement retained (%d shapes)", n)
	}
}

// TestShapeMemoConcurrentInvalidate: mediations of one shape race
// Invalidate and a run-time registration (serialised against mediations,
// as the Mediator's contract demands; Invalidate itself is not). Every
// answer is the serial fresh answer for the registry it ran against, and
// none after the registration reflects the registry before it.
func TestShapeMemoConcurrentInvalidate(t *testing.T) {
	const workers, rounds = 8, 150
	sqlFor := func(w int) string {
		return fmt.Sprintf("SELECT r1.cname, r1.revenue FROM r1 WHERE r1.revenue > %d", 1000*(w+1))
	}
	denyJPY := func(reg *domain.Registry) {
		reg.MustRegisterRelation("r9", relalg.NewSchema(relalg.Column{Name: "k", Type: relalg.KindString}), nil)
		if err := reg.AddDenialText(`r1(N, Rev, C), C = "JPY"`); err != nil {
			panic(err)
		}
	}
	// Serial fresh answers, before and after the registration.
	var want [2][workers]string
	after := fixture.Registry()
	denyJPY(after)
	for gen, reg := range []*domain.Registry{fixture.Registry(), after} {
		for w := 0; w < workers; w++ {
			stmt, _ := sqlparse.Parse(sqlFor(w))
			med, err := New(reg).MediateExact(stmt, "c2")
			if err != nil {
				t.Fatal(err)
			}
			want[gen][w] = med.SQL()
		}
	}
	if want[0][0] == want[1][0] {
		t.Fatal("the registration does not change the answer")
	}

	reg := fixture.Registry()
	m := New(reg)
	var (
		regMu sync.RWMutex // registry mutation vs mediation: the caller's to serialise
		gen   int          // guarded by regMu
		wg    sync.WaitGroup
	)
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				regMu.RLock()
				med, err := m.MediateSQL(sqlFor(w), "c2")
				g := gen
				regMu.RUnlock()
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if got := med.SQL(); got != want[g][w] {
					t.Errorf("worker %d, generation %d:\n%s\nwant:\n%s", w, g, got, want[g][w])
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < rounds; i++ {
			m.Invalidate() // overlaps mediations: a miss may publish into a retired program
			if i == rounds/2 {
				regMu.Lock()
				denyJPY(reg)
				m.Invalidate()
				gen = 1
				regMu.Unlock()
			}
		}
	}()
	close(start)
	wg.Wait()
	for w := 0; w < workers; w++ {
		if got := mustMediate(t, m, sqlFor(w), "c2").SQL(); got != want[1][w] {
			t.Errorf("after the registration, worker %d's text:\n%s\nwant:\n%s", w, got, want[1][w])
		}
	}
}
