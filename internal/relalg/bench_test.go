package relalg

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sqlparse"
)

func benchRelations(n int, seed int64) (*Relation, *Relation) {
	r := rand.New(rand.NewSource(seed))
	a := NewRelation("a", NewSchema(Column{"a.k", KindNumber}, Column{"a.v", KindNumber}))
	b := NewRelation("b", NewSchema(Column{"b.k", KindNumber}, Column{"b.w", KindNumber}))
	for i := 0; i < n; i++ {
		a.MustAdd(NumV(float64(r.Intn(n))), NumV(float64(r.Intn(1000))))
		b.MustAdd(NumV(float64(r.Intn(n))), NumV(float64(r.Intn(1000))))
	}
	return a, b
}

func BenchmarkHashJoin(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		ra, rb := benchRelations(n, 1)
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := collect(NewHashJoin(NewScan(ra), NewScan(rb), []string{"a.k"}, []string{"b.k"}, nil, false, nil)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkNestedLoopJoin(b *testing.B) {
	pred := sqlparse.Bin("=", sqlparse.Col("a", "k"), sqlparse.Col("b", "k"))
	for _, n := range []int{100, 1000} {
		ra, rb := benchRelations(n, 1)
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := collect(NewNestedLoop(NewScan(ra), rb, pred), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFilterEval(b *testing.B) {
	ra, _ := benchRelations(10000, 1)
	pred := sqlparse.Bin(">", sqlparse.Col("a", "v"), sqlparse.Num(500))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := collect(NewFilter(NewScan(ra), pred), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroupByAgg(b *testing.B) {
	ra, _ := benchRelations(10000, 1)
	keys := []sqlparse.Expr{sqlparse.Col("a", "k")}
	items := []AggItem{
		{Name: "k", Expr: sqlparse.Col("a", "k")},
		{Name: "s", Expr: &sqlparse.FuncCall{Name: "SUM", Args: []sqlparse.Expr{sqlparse.Col("a", "v")}}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := collect(NewGroupBy(NewScan(ra), keys, items, nil, nil), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// sortBenchRel builds n rows of (name string, revenue number): unique
// names over a shuffled revenue column with ~n/4 distinct values, the
// shape of the mediated union a receiver's ORDER BY runs over.
func sortBenchRel(n int) *Relation {
	r := rand.New(rand.NewSource(1))
	rel := NewRelation("t", NewSchema(Column{"t.name", KindString}, Column{"t.revenue", KindNumber}))
	for i := 0; i < n; i++ {
		rel.MustAdd(StrV(fmt.Sprintf("company-%06d", r.Intn(n))), NumV(float64(r.Intn(n/4+1))*1000))
	}
	return rel
}

// BenchmarkSortOrderBy is the ORDER BY kernel alone: NewSort + Collect
// over a materialized input, on a single numeric DESC key (the typed comparator) and on a
// string+number key pair.
func BenchmarkSortOrderBy(b *testing.B) {
	revenue := []OrderKey{{Expr: sqlparse.Col("t", "revenue"), Desc: true}}
	nameRevenue := []OrderKey{{Expr: sqlparse.Col("t", "name")}, {Expr: sqlparse.Col("t", "revenue"), Desc: true}}
	run := func(b *testing.B, rel *Relation, keys []OrderKey) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := collect(NewSort(NewScan(rel), keys, nil), nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, n := range []int{8, 1000, 10000, 100000} {
		rel := sortBenchRel(n)
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) { run(b, rel, revenue) })
	}
	rel := sortBenchRel(10000)
	b.Run("keys=name,revenue/rows=10000", func(b *testing.B) { run(b, rel, nameRevenue) })
}
