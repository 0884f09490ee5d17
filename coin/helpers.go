package coin

import (
	"repro/internal/datalog"
	"repro/internal/relalg"
	"repro/internal/web"
	"repro/internal/wrapper"
)

// builtinSpecSources maps the public spec names to their source text.
var builtinSpecSources = map[string]string{
	CurrencySpecCrawl:  wrapper.CurrencySpecCrawl,
	CurrencySpecLookup: wrapper.CurrencySpecLookup,
	StockSpec:          wrapper.StockSpec,
	ProfileSpec:        wrapper.ProfileSpec,
}

// fixtureCurrencySite builds the simulated currency-exchange site with
// the paper's rates.
func fixtureCurrencySite() *web.Site { return web.NewCurrencySite(web.PaperRates()) }

// NewCurrencySite exposes the simulated currency-exchange site builder so
// applications can stand up their own ancillary rate source.
func NewCurrencySite(rates map[web.RatePair]float64) *web.Site {
	return web.NewCurrencySite(rates)
}

// NewStockSite exposes the simulated ticker site builder.
func NewStockSite(quotes []web.Quote) *web.Site { return web.NewStockSite(quotes) }

// NewProfileSite exposes the simulated company-directory builder.
func NewProfileSite(profiles []web.Profile) *web.Site { return web.NewProfileSite(profiles) }

// TermStr builds a string-constant term for conversion and context
// declarations (e.g. the from/to values of an AffineConversion).
func TermStr(s string) datalog.Term { return datalog.Str(s) }

// TermNum builds a numeric-constant term.
func TermNum(v float64) datalog.Term { return datalog.Number(v) }

// Re-exported value kinds and schema builder.
const (
	KindNull   = relalg.KindNull
	KindNumber = relalg.KindNumber
	KindString = relalg.KindString
	KindBool   = relalg.KindBool
)

// NewSchema builds a schema from columns.
var NewSchema = relalg.NewSchema

// Re-exported simulated-Web types for building sites.
type (
	// Site is a simulated Web site.
	Site = web.Site
	// RatePair is a directed currency pair.
	RatePair = web.RatePair
	// Quote is one security price.
	Quote = web.Quote
	// Profile is one company record.
	Profile = web.Profile
)

// Built-in wrapping specifications for the simulated sites.
const (
	// CurrencySpecCrawl wraps the rate site by crawling its index.
	CurrencySpecCrawl = "currency-crawl"
	// CurrencySpecLookup wraps the rate site as a parameterized lookup.
	CurrencySpecLookup = "currency-lookup"
	// StockSpec wraps the ticker site.
	StockSpec = "stocks"
	// ProfileSpec wraps the company directory.
	ProfileSpec = "profiles"
)

// BuiltinSpec returns one of the named built-in wrapping specifications.
func BuiltinSpec(name string) (*WrapSpec, bool) {
	src, ok := builtinSpecSources[name]
	if !ok {
		return nil, false
	}
	spec, err := ParseWrapSpec(src)
	if err != nil {
		return nil, false
	}
	return spec, true
}
