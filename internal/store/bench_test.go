package store

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/relalg"
)

func benchRelation(n int) *relalg.Relation {
	rel := relalg.NewRelation("bench", relalg.NewSchema(
		relalg.Column{Name: "id", Type: relalg.KindString},
		relalg.Column{Name: "v", Type: relalg.KindNumber},
	))
	for i := 0; i < n; i++ {
		rel.MustAdd(relalg.StrV(fmt.Sprintf("row%06d", i)), relalg.NumV(float64(i)))
	}
	return rel
}

func BenchmarkWriteCSV(b *testing.B) {
	rel := benchRelation(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteCSV(rel, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexLookup(b *testing.B) {
	tab := NewTable("t", relalg.NewSchema(
		relalg.Column{Name: "id", Type: relalg.KindString},
		relalg.Column{Name: "v", Type: relalg.KindNumber},
	))
	for i := 0; i < 10000; i++ {
		tab.MustInsert(relalg.StrV(fmt.Sprintf("row%06d", i)), relalg.NumV(float64(i)))
	}
	key := relalg.StrV("row004242")
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rel, err := tab.Lookup("id", key)
			if err != nil || rel.Len() != 1 {
				b.Fatalf("%v %v", rel, err)
			}
		}
	})
	if err := tab.CreateIndex("id"); err != nil {
		b.Fatal(err)
	}
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rel, err := tab.Lookup("id", key)
			if err != nil || rel.Len() != 1 {
				b.Fatalf("%v %v", rel, err)
			}
		}
	})
}
