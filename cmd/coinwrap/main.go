// Command coinwrap exercises a source wrapper standalone and prints the
// extracted relation as CSV: a Web-wrapping specification against one of
// the simulated sites (the [Qu96] wrapping technology), a directory of
// CSV/JSON files, or a remote REST backend.
//
// Usage:
//
//	coinwrap -builtin currency-crawl
//	coinwrap -builtin stocks
//	coinwrap -spec my.spec -site currency
//	coinwrap -files ./data            # list the directory's relations
//	coinwrap -files ./data -rel earnings
//	coinwrap -rest http://host:8080 -rel quotes
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/coin"
	"repro/internal/store"
	"repro/internal/web"
	"repro/internal/wrapper"
	"repro/internal/wrapper/filesrc"
	"repro/internal/wrapper/restsrc"
)

func main() {
	builtin := flag.String("builtin", "", "built-in spec: currency-crawl, currency-lookup, stocks, profiles")
	specPath := flag.String("spec", "", "path to a wrapping specification file")
	siteName := flag.String("site", "", "simulated site: currency, stocks, profiles (inferred for -builtin)")
	from := flag.String("from", "JPY", "fromCur binding for currency-lookup")
	to := flag.String("to", "USD", "toCur binding for currency-lookup")
	filesDir := flag.String("files", "", "serve a directory of *.csv / *.json files instead of a wrapping spec")
	restURL := flag.String("rest", "", "dial a REST backend's base URL instead of a wrapping spec")
	rel := flag.String("rel", "", "relation to dump for -files / -rest (omit to list relations)")
	flag.Parse()

	var err error
	switch {
	case *filesDir != "" || *restURL != "":
		err = runBackend(*filesDir, *restURL, *rel)
	default:
		err = run(*builtin, *specPath, *siteName, *from, *to)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "coinwrap:", err)
		os.Exit(1)
	}
}

// runBackend dumps one relation (or the relation list) from a file- or
// REST-backed source, sharing the CSV output path with the spec modes.
func runBackend(filesDir, restURL, rel string) error {
	var (
		w   wrapper.Wrapper
		err error
	)
	ctx := context.Background()
	switch {
	case filesDir != "" && restURL != "":
		return fmt.Errorf("-files and -rest are mutually exclusive")
	case filesDir != "":
		w, err = filesrc.New("files", filesDir)
	default:
		w, err = restsrc.DialContext(ctx, "rest", restURL, nil)
	}
	if err != nil {
		return err
	}
	if rel == "" {
		for _, r := range w.Relations() {
			schema, err := w.Schema(r)
			if err != nil {
				return err
			}
			fmt.Printf("%s (%d est. rows): %v\n", r, w.EstimateRows(ctx, r), schema.Names())
		}
		return nil
	}
	out, err := w.Query(ctx, wrapper.SourceQuery{Relation: rel})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "-- %s: %d tuple(s)\n", rel, out.Len())
	return store.WriteCSV(out, os.Stdout)
}

func run(builtin, specPath, siteName, from, to string) error {
	var spec *coin.WrapSpec
	switch {
	case builtin != "":
		s, ok := coin.BuiltinSpec(builtin)
		if !ok {
			return fmt.Errorf("no built-in spec %q", builtin)
		}
		spec = s
		if siteName == "" {
			switch builtin {
			case coin.CurrencySpecCrawl, coin.CurrencySpecLookup:
				siteName = "currency"
			case coin.StockSpec:
				siteName = "stocks"
			case coin.ProfileSpec:
				siteName = "profiles"
			}
		}
	case specPath != "":
		raw, err := os.ReadFile(specPath)
		if err != nil {
			return err
		}
		s, err := coin.ParseWrapSpec(string(raw))
		if err != nil {
			return err
		}
		spec = s
	default:
		return fmt.Errorf("one of -builtin or -spec is required")
	}

	var site *web.Site
	switch siteName {
	case "currency":
		site = web.NewCurrencySite(web.PaperRates())
	case "stocks":
		site = web.NewStockSite(demoQuotes())
	case "profiles":
		site = web.NewProfileSite(demoProfiles())
	default:
		return fmt.Errorf("unknown site %q (want currency, stocks or profiles)", siteName)
	}

	w := wrapper.NewWeb(site.Name, site, spec)
	q := wrapper.SourceQuery{Relation: spec.Relation}
	for _, p := range spec.Params {
		switch p {
		case "fromCur":
			q.Filters = append(q.Filters, wrapper.Filter{Column: p, Op: "=", Value: coin.StrV(from)})
		case "toCur":
			q.Filters = append(q.Filters, wrapper.Filter{Column: p, Op: "=", Value: coin.StrV(to)})
		default:
			return fmt.Errorf("spec parameter %s has no flag; use -builtin currency-lookup's -from/-to", p)
		}
	}
	rel, err := w.Query(context.Background(), q)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "-- %s: %d tuple(s) from %d page fetch(es)\n", spec.Relation, rel.Len(), site.Hits())
	return store.WriteCSV(rel, os.Stdout)
}

func demoQuotes() []web.Quote {
	return []web.Quote{
		{Ticker: "IBM", Exchange: "NYSE", Price: 151.25, Currency: "USD"},
		{Ticker: "T", Exchange: "NYSE", Price: 38.5, Currency: "USD"},
		{Ticker: "NTT", Exchange: "TSE", Price: 880000, Currency: "JPY"},
		{Ticker: "SONY", Exchange: "TSE", Price: 9100, Currency: "JPY"},
		{Ticker: "SAP", Exchange: "FSE", Price: 155, Currency: "EUR"},
	}
}

func demoProfiles() []web.Profile {
	return []web.Profile{
		{Name: "IBM", Country: "USA", Sector: "Technology", Employees: 220000},
		{Name: "NTT", Country: "Japan", Sector: "Telecom", Employees: 330000},
		{Name: "SAP", Country: "Germany", Sector: "Technology", Employees: 48000},
	}
}
