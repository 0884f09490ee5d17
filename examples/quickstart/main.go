// Quickstart: the paper's Section 3 example end to end.
//
// It builds the Figure 2 system (two relational sources in conflicting
// contexts plus the currency-exchange Web source), shows the naive query
// returning the paper's "clearly not correct" empty answer, prints the
// mediated query — the 3-branch UNION of Section 3 — and executes it to
// obtain the correct answer <'NTT', 9 600 000>.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/coin"
)

func main() {
	sys := coin.Figure2System()

	fmt.Println("== The query, as the receiver in context c2 writes it (no conflicts assumed):")
	fmt.Println(coin.PaperQ1)
	fmt.Println()

	rs, err := sys.Run(context.Background(), coin.PaperQ1, "", true, coin.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	naive, err := rs.Collect()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== Naive execution (contexts ignored): %d row(s) — the paper's wrong, empty answer\n\n", naive.Len())

	med, err := sys.Mediate(coin.PaperQ1, "c2")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== Context mediation detected the conflicts and rewrote Q1 into %d sub-queries:\n\n%s;\n\n", len(med.Branches), med.SQL())
	fmt.Printf("== Why (from the abductive derivation):\n%s\n", med.ExplainText())

	rows, _, err := sys.ExecuteWarnCtx(context.Background(), med, coin.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== Mediated answer (in the receiver's context: USD, scale factor 1):")
	fmt.Print(rows.String())
	fmt.Println()
	fmt.Println("NTT's revenue was reported as 1,000,000 in JPY thousands; mediation")
	fmt.Println("scaled it by 1000 and converted at the Web-sourced rate 0.0096:")
	fmt.Println("1,000,000 x 1,000 x 0.0096 = 9,600,000 USD > 5,000,000 USD expenses.")
}
