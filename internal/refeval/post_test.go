package refeval

// The post-union leg: the engine's MediationStream, which unites a
// mediation's branches and then runs its post-union step, held to the
// evaluator's answers to the branches, united and run through the
// evaluator's own tail. The mediations are built by hand from the
// generator's UNION case (two SELECTs over one FROM list that differ in
// their filters, with or without ALL), and the post step is drawn over
// the branches' aliases in one of the shapes the mediator emits: a
// grouped aggregate, maybe with a HAVING; the identity select list
// ordered by every column and cut by a LIMIT (a multi-branch ORDER BY);
// or the identity under DISTINCT.

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/planner"
	"repro/internal/relalg"
	"repro/internal/sqlparse"
)

// medText prints a hand-built mediation in failure messages.
type medText struct{ *core.Mediation }

func (m medText) String() string { return m.SQL() }

// mediation draws a two-branch mediation with a post-union step.
func (g *qgen) mediation() *core.Mediation {
	from, joins := g.from()
	sel := &sqlparse.Select{From: refs(from), Limit: -1, Where: g.where(from, joins)}
	u := g.union(sel, from, joins)
	kinds := map[string]column{}
	var cols [][2]string
	var identity []sqlparse.SelectItem
	for _, it := range sel.Items {
		c := it.Expr.(*sqlparse.ColRef)
		kinds[it.Alias] = kindOf(c.Table, c.Column)
		cols = append(cols, [2]string{"", it.Alias})
		identity = append(identity, sqlparse.SelectItem{Expr: sqlparse.Col("", it.Alias)})
	}
	post := &sqlparse.Select{Limit: -1}
	switch g.pick(3) {
	case 0:
		kind := func(_, name string) column { return kinds[name] }
		post.Items, post.GroupBy, post.Having = g.aggItems(cols, kind, true)
		if g.pick(2) == 0 {
			for _, it := range post.Items {
				post.OrderBy = append(post.OrderBy, sqlparse.OrderItem{Expr: sqlparse.Col("", it.Alias), Desc: g.pick(2) == 0})
			}
		}
	case 1:
		post.Items = identity
		for _, c := range cols {
			post.OrderBy = append(post.OrderBy, sqlparse.OrderItem{Expr: sqlparse.Col("", c[1]), Desc: g.pick(2) == 0})
		}
		post.Limit = g.pick(12)
	default:
		post.Items, post.Distinct = identity, true
	}
	return &core.Mediation{Branches: []*sqlparse.Select{u.Left.(*sqlparse.Select), u.Right.(*sqlparse.Select)},
		UnionAll: u.All, Post: post}
}

// evalMediation answers med with the evaluator: its branches' answers,
// united, deduplicated unless UnionAll, then the post step's clauses.
func (w *world) evalMediation(med *core.Mediation) (answer, error) {
	var cols []string
	var rows []relalg.Tuple
	for _, b := range med.Branches {
		a, err := evaluate(context.Background(), w.source, b)
		if err != nil {
			return answer{}, err
		}
		cols, rows = a.cols, append(rows, a.rows...)
	}
	if !med.UnionAll {
		rows = dedup(rows)
	}
	return evalTail(med.Post, cols, rows)
}

// checkMediation holds MediationStream to the evaluator on med under
// every config.
func (w *world) checkMediation(t *testing.T, seed int64, med *core.Mediation) {
	t.Helper()
	goroutines := runtime.NumGoroutine()
	want, err := w.evalMediation(med)
	if err != nil {
		t.Fatalf("seed %d: evaluator: %v\n%s", seed, err, med.SQL())
	}
	w.agree(t, seed, medText{med}, want, len(med.Post.OrderBy) > 0, func(k knobs) (*relalg.Relation, error) {
		ex := w.executor(k)
		sess := ex.NewSession(context.Background(), planner.Limits{})
		defer sess.Close()
		it, err := ex.MediationStream(sess, med)
		if err != nil {
			return nil, err
		}
		return relalg.Collect(sess.Context(), it, "")
	})
	settle(t, seed, goroutines, medText{med})
}

// TestRefereePost runs the post-union leg over TestReferee's seeds.
func TestRefereePost(t *testing.T) {
	seeds := int64(24)
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := newWorld(rng)
		g := &qgen{rng: rng}
		for i := 0; i < 3; i++ {
			w.checkMediation(t, seed, g.mediation())
		}
	}
}
