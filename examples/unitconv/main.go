// Unitconv: context mediation is not only about money. Two engineering
// parts catalogs report rod lengths in different units — one in
// millimeters, one in inches — and an engineer working in millimeters
// queries both as if there were no conflict. The affine conversion class
// (fixed linear coefficients, here 1 in = 25.4 mm) reconciles them,
// alongside the paper's ratio and rate-lookup conversion classes.
//
//	go run ./examples/unitconv
package main

import (
	"context"
	"fmt"
	"log"

	"repro/coin"
)

func main() {
	model := coin.NewModel()
	model.MustAddType(&coin.SemType{Name: "partNumber"})
	model.MustAddType(&coin.SemType{Name: "length", Modifiers: []string{"unit"}})
	model.MustAddConversion(coin.AffineConversion("unit",
		coin.TermStr("in"), coin.TermStr("mm"), 25.4, 0))
	sys := coin.New(model)

	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	metric := coin.NewContext("metric")
	must(metric.DeclareConst("length", "unit", "mm"))
	must(sys.AddContext(metric))
	imperial := coin.NewContext("imperial")
	must(imperial.DeclareConst("length", "unit", "in"))
	must(sys.AddContext(imperial))

	elevate := func(rel, ctx string) *coin.Elevation {
		return &coin.Elevation{
			Relation: rel,
			Context:  ctx,
			Columns: []coin.ElevatedColumn{
				{Column: "part", SemType: "partNumber"},
				{Column: "len", SemType: "length"},
			},
		}
	}
	euDB := coin.NewDB("eu_catalog")
	eu := euDB.MustCreateTable("eu_parts", coin.NewSchema(
		coin.Column{Name: "part", Type: coin.KindString},
		coin.Column{Name: "len", Type: coin.KindNumber},
	))
	eu.MustInsert(coin.StrV("ROD-1"), coin.NumV(500))
	eu.MustInsert(coin.StrV("ROD-2"), coin.NumV(254))
	must(sys.AddRelationalSource(euDB, map[string]*coin.Elevation{"eu_parts": elevate("eu_parts", "metric")}))

	usDB := coin.NewDB("us_catalog")
	us := usDB.MustCreateTable("us_parts", coin.NewSchema(
		coin.Column{Name: "part", Type: coin.KindString},
		coin.Column{Name: "len", Type: coin.KindNumber},
	))
	us.MustInsert(coin.StrV("ROD-3"), coin.NumV(10)) // 10 in = 254 mm
	us.MustInsert(coin.StrV("ROD-4"), coin.NumV(24)) // 24 in = 609.6 mm
	must(sys.AddRelationalSource(usDB, map[string]*coin.Elevation{"us_parts": elevate("us_parts", "imperial")}))

	fmt.Println("== All rods longer than 300 mm, in the metric engineer's context:")
	q := `SELECT e.part, e.len FROM eu_parts e WHERE e.len > 300
	      UNION
	      SELECT u.part, u.len FROM us_parts u WHERE u.len > 300`
	med, err := sys.Mediate(q, "metric")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("-- mediated (the imperial arm gained \"* 25.4\"):\n%s\n\n", med.SQL())
	rows, _, err := sys.ExecuteWarnCtx(context.Background(), med, coin.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rows.String())

	fmt.Println("\n== The same question in the imperial engineer's context (inches):")
	rows, err = sys.Query(`SELECT e.part, e.len FROM eu_parts e UNION SELECT u.part, u.len FROM us_parts u`, "imperial")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rows.String())
}
