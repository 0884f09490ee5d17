// Federation: the extensibility claim, live. The paper argues COIN
// integration is extensible because "the addition of new sources or
// receivers requires only incremental instantiation of a new context (if
// one does not already exist)" and changes stay local to elevation axioms.
//
// This example starts with the Figure 2 federation, runs the paper's
// query, then integrates a brand-new European source at runtime — one
// context declaration plus elevation axioms, nothing else — and shows (a)
// the old query's mediated form is byte-for-byte unchanged, and (b) the
// new source is immediately queryable in the receiver's context.
//
//	go run ./examples/federation
package main

import (
	"context"
	"fmt"
	"log"

	"repro/coin"
)

func main() {
	sys := coin.Figure2System()

	before, err := sys.Mediate(coin.PaperQ1, "c2")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== Federation of %d sources; Q1 mediates into %d branches.\n\n",
		len(sys.Relations()), len(before.Branches))

	fmt.Println("== A new source joins: European financials in thousands of EUR.")
	fmt.Println("   Integration cost: one context (c3) + elevation axioms for r4. Nothing else.")
	c3 := coin.NewContext("c3")
	must(c3.DeclareConst("companyFinancials", "scaleFactor", 1000))
	must(c3.DeclareConst("companyFinancials", "currency", "EUR"))
	must(sys.AddContext(c3))

	db := coin.NewDB("source3")
	tab := db.MustCreateTable("r4", coin.NewSchema(
		coin.Column{Name: "cname", Type: coin.KindString},
		coin.Column{Name: "revenue", Type: coin.KindNumber},
	))
	tab.MustInsert(coin.StrV("SAP"), coin.NumV(8_500_000))      // 8.5e6 kEUR
	tab.MustInsert(coin.StrV("SIEMENS"), coin.NumV(62_000_000)) // 62e6 kEUR
	must(sys.AddRelationalSource(db, map[string]*coin.Elevation{
		"r4": {
			Relation: "r4",
			Context:  "c3",
			Columns: []coin.ElevatedColumn{
				{Column: "cname", SemType: "companyName"},
				{Column: "revenue", SemType: "companyFinancials"},
			},
		},
	}))

	after, err := sys.Mediate(coin.PaperQ1, "c2")
	if err != nil {
		log.Fatal(err)
	}
	if before.Mediated.String() == after.Mediated.String() {
		fmt.Println("\n== Old query re-mediated: byte-for-byte identical. No ripple effects.")
	} else {
		fmt.Println("\n!! Old query CHANGED — extensibility violated:")
		fmt.Println(after.SQL())
	}

	fmt.Println("\n== The new source answers immediately, converted into the receiver's USD:")
	med, err := sys.Mediate("SELECT r4.cname, r4.revenue FROM r4 ORDER BY revenue DESC", "c2")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("-- mediated (%d branch(es)):\n%s\n\n", len(med.Branches), med.SQL())
	rows, _, err := sys.ExecuteWarnCtx(context.Background(), med, coin.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rows.String())
	fmt.Println("\n(8,500,000 kEUR x 1000 x 1.10 = 9.35e12 USD etc. — scale and rate applied.)")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
