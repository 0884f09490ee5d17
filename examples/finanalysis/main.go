// Financial-analysis decision support — the application area the paper's
// conclusion reports deploying with industry partners ("profit and loss
// analysis, and marketing intelligence").
//
// Two financial databases report company P&L in different contexts (a US
// source in plain USD; a Japanese source in thousands of JPY), a Web
// directory provides company profiles, and a currency-exchange Web site
// provides rates. The analyst, working in USD, asks profit-and-loss
// questions without knowing any of that.
//
//	go run ./examples/finanalysis
package main

import (
	"context"
	"fmt"
	"log"

	"repro/coin"
)

func buildSystem() *coin.System {
	model := coin.NewModel()
	model.MustAddType(&coin.SemType{Name: "companyName"})
	model.MustAddType(&coin.SemType{Name: "money", Modifiers: []string{"scaleFactor", "currency"}})
	model.MustAddConversion(coin.RatioConversion("scaleFactor"))
	model.MustAddConversion(coin.LookupConversion("currency", "rate"))
	sys := coin.New(model)

	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}

	usa := coin.NewContext("usa")
	must(usa.DeclareConst("money", "scaleFactor", 1))
	must(usa.DeclareConst("money", "currency", "USD"))
	must(sys.AddContext(usa))

	japan := coin.NewContext("japan")
	must(japan.DeclareConst("money", "scaleFactor", 1000))
	must(japan.DeclareConst("money", "currency", "JPY"))
	must(sys.AddContext(japan))

	// US source: plain USD.
	usDB := coin.NewDB("us_financials")
	usTab := usDB.MustCreateTable("us_fin", coin.NewSchema(
		coin.Column{Name: "cname", Type: coin.KindString},
		coin.Column{Name: "revenue", Type: coin.KindNumber},
		coin.Column{Name: "expenses", Type: coin.KindNumber},
	))
	usTab.MustInsert(coin.StrV("IBM"), coin.NumV(81_000_000_000), coin.NumV(72_000_000_000))
	usTab.MustInsert(coin.StrV("ATT"), coin.NumV(52_000_000_000), coin.NumV(53_500_000_000))
	moneyCols := func(rel string) *coin.Elevation {
		return &coin.Elevation{
			Relation: rel,
			Context:  map[string]string{"us_fin": "usa", "jp_fin": "japan"}[rel],
			Columns: []coin.ElevatedColumn{
				{Column: "cname", SemType: "companyName"},
				{Column: "revenue", SemType: "money"},
				{Column: "expenses", SemType: "money"},
			},
		}
	}
	must(sys.AddRelationalSource(usDB, map[string]*coin.Elevation{"us_fin": moneyCols("us_fin")}))

	// Japanese source: thousands of JPY.
	jpDB := coin.NewDB("jp_financials")
	jpTab := jpDB.MustCreateTable("jp_fin", coin.NewSchema(
		coin.Column{Name: "cname", Type: coin.KindString},
		coin.Column{Name: "revenue", Type: coin.KindNumber},
		coin.Column{Name: "expenses", Type: coin.KindNumber},
	))
	jpTab.MustInsert(coin.StrV("NTT"), coin.NumV(9_500_000_000), coin.NumV(8_100_000_000)) // thousands of JPY
	jpTab.MustInsert(coin.StrV("SONY"), coin.NumV(4_400_000_000), coin.NumV(4_700_000_000))
	must(sys.AddRelationalSource(jpDB, map[string]*coin.Elevation{"jp_fin": moneyCols("jp_fin")}))

	// Company profiles from the Web directory (context-free).
	profiles := coin.NewProfileSite([]coin.Profile{
		{Name: "IBM", Country: "USA", Sector: "Technology", Employees: 220000},
		{Name: "ATT", Country: "USA", Sector: "Telecom", Employees: 300000},
		{Name: "NTT", Country: "Japan", Sector: "Telecom", Employees: 330000},
		{Name: "SONY", Country: "Japan", Sector: "Technology", Employees: 160000},
	})
	profSpec, _ := coin.BuiltinSpec(coin.ProfileSpec)
	must(sys.AddWebSource("profileweb", profiles, []*coin.WrapSpec{profSpec}, nil))

	// Exchange rates from the currency Web service (ancillary).
	rates := coin.NewCurrencySite(map[coin.RatePair]float64{
		{From: "JPY", To: "USD"}: 0.0096,
		{From: "USD", To: "JPY"}: 104.00,
	})
	rateSpec, _ := coin.BuiltinSpec(coin.CurrencySpecCrawl)
	must(sys.AddWebSource("currencyweb", rates, []*coin.WrapSpec{rateSpec}, nil))
	must(sys.AddAncillary("rate", "r3"))
	return sys
}

func main() {
	sys := buildSystem()

	fmt.Println("== Profit & loss per Japanese company, in the analyst's USD context:")
	q1 := "SELECT j.cname, j.revenue - j.expenses AS profit FROM jp_fin j ORDER BY profit DESC"
	med, err := sys.Mediate(q1, "usa")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("-- mediated (%d branch(es)); conversion: x1000, JPY->USD rate from the Web\n", len(med.Branches))
	rows, _, err := sys.ExecuteWarnCtx(context.Background(), med, coin.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rows.String())

	fmt.Println("\n== The same numbers naively (contexts ignored) would be wildly wrong:")
	rs, err := sys.Run(context.Background(), "SELECT j.cname, j.revenue - j.expenses AS profit FROM jp_fin j", "", true, coin.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	naive, err := rs.Collect()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(naive.String())

	fmt.Println("\n== Cross-source, cross-context: total revenue of the Telecom sector in USD:")
	q3 := `SELECT SUM(j.revenue) AS telecom_jp_usd FROM jp_fin j, profiles p
	       WHERE j.cname = p.cname AND p.sector = 'Telecom'`
	rows, err = sys.Query(q3, "usa")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rows.String())

	fmt.Println("\n== Marketing intelligence: who is profitable, across both sources (UNION):")
	q4 := `SELECT u.cname, u.revenue - u.expenses AS profit FROM us_fin u WHERE u.revenue > u.expenses
	       UNION
	       SELECT j.cname, j.revenue - j.expenses AS profit FROM jp_fin j WHERE j.revenue > j.expenses`
	rows, err = sys.Query(q4, "usa")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rows.String())
}
