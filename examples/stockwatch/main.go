// Stockwatch: Web sites as primary sources. The paper's conclusion
// describes demos where sites "reporting security prices on the various
// stock exchanges" are primary sources and currency-rate sites are
// ancillary. Here a portfolio held locally is valued in USD against a
// ticker site whose prices are quoted in each exchange's local currency.
//
//	go run ./examples/stockwatch
package main

import (
	"context"
	"fmt"
	"log"

	"repro/coin"
)

func main() {
	model := coin.NewModel()
	model.MustAddType(&coin.SemType{Name: "tickerSymbol"})
	model.MustAddType(&coin.SemType{Name: "securityPrice", Modifiers: []string{"currency"}})
	model.MustAddConversion(coin.LookupConversion("currency", "rate"))
	sys := coin.New(model)

	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}

	// The ticker site quotes every security in its exchange's currency;
	// the wrapper surfaces that currency as an attribute, and the context
	// theory says "the price's currency is whatever that attribute says".
	webCtx := coin.NewContext("webquotes")
	webCtx.MustDeclare(&coin.ModifierDecl{
		SemType:  "securityPrice",
		Modifier: "currency",
		Cases:    []coin.Case{{Value: coin.AttrSpec("currency")}},
	})
	must(sys.AddContext(webCtx))

	usd := coin.NewContext("usd")
	must(usd.DeclareConst("securityPrice", "currency", "USD"))
	must(sys.AddContext(usd))

	quotes := coin.NewStockSite([]coin.Quote{
		{Ticker: "IBM", Exchange: "NYSE", Price: 151.25, Currency: "USD"},
		{Ticker: "T", Exchange: "NYSE", Price: 38.50, Currency: "USD"},
		{Ticker: "NTT", Exchange: "TSE", Price: 880000, Currency: "JPY"},
		{Ticker: "SONY", Exchange: "TSE", Price: 9100, Currency: "JPY"},
		{Ticker: "SAP", Exchange: "FSE", Price: 155, Currency: "EUR"},
	})
	stockSpec, _ := coin.BuiltinSpec(coin.StockSpec)
	must(sys.AddWebSource("stockweb", quotes, []*coin.WrapSpec{stockSpec}, map[string]*coin.Elevation{
		"quotes": {
			Relation: "quotes",
			Context:  "webquotes",
			Columns: []coin.ElevatedColumn{
				{Column: "ticker", SemType: "tickerSymbol"},
				{Column: "price", SemType: "securityPrice"},
			},
		},
	}))

	rates := coin.NewCurrencySite(map[coin.RatePair]float64{
		{From: "JPY", To: "USD"}: 0.0096,
		{From: "EUR", To: "USD"}: 1.10,
		{From: "GBP", To: "USD"}: 1.55,
	})
	rateSpec, _ := coin.BuiltinSpec(coin.CurrencySpecCrawl)
	must(sys.AddWebSource("currencyweb", rates, []*coin.WrapSpec{rateSpec}, nil))
	must(sys.AddAncillary("rate", "r3"))

	// The local portfolio (context-free: share counts are just counts).
	pf := coin.NewDB("portfolio")
	hold := pf.MustCreateTable("holdings", coin.NewSchema(
		coin.Column{Name: "ticker", Type: coin.KindString},
		coin.Column{Name: "shares", Type: coin.KindNumber},
	))
	hold.MustInsert(coin.StrV("IBM"), coin.NumV(100))
	hold.MustInsert(coin.StrV("NTT"), coin.NumV(3))
	hold.MustInsert(coin.StrV("SAP"), coin.NumV(40))
	must(sys.AddRelationalSource(pf, nil))

	fmt.Println("== Quotes as the sites report them (mixed currencies):")
	rs, err := sys.Run(context.Background(), "SELECT quotes.ticker, quotes.exchange, quotes.price FROM quotes", "", true, coin.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	naive, err := rs.Collect()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(naive.String())

	fmt.Println("\n== The same board, mediated into USD:")
	med, err := sys.Mediate("SELECT quotes.ticker, quotes.price FROM quotes ORDER BY price DESC", "usd")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("-- %d branch(es): USD passthrough + per-currency conversion via the rate site\n", len(med.Branches))
	rows, _, err := sys.ExecuteWarnCtx(context.Background(), med, coin.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rows.String())

	fmt.Println("\n== Portfolio value in USD (join of local holdings with Web quotes):")
	q := `SELECT h.ticker, quotes.price * h.shares AS value_usd
	      FROM quotes, holdings h WHERE h.ticker = quotes.ticker ORDER BY value_usd DESC`
	rows, err = sys.Query(q, "usd")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rows.String())

	fmt.Println("\n== Total:")
	rows, err = sys.Query(`SELECT SUM(quotes.price * h.shares) AS portfolio_usd
	                        FROM quotes, holdings h WHERE h.ticker = quotes.ticker`, "usd")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rows.String())
}
