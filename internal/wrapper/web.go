package wrapper

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/relalg"
)

// Fetcher is the page-access contract the Web wrapper runs against; both
// the simulated internal/web.Site and a live HTTP client satisfy it. The
// context bounds one page fetch: implementations abort (and return
// ctx.Err()) when it is canceled, so an abandoned crawl stops contacting
// the site.
type Fetcher interface {
	Get(ctx context.Context, url string) (string, error)
}

// Web executes wrapping specifications against a site, exposing its pages
// as relations. Its capabilities are deliberately weak — no remote
// selection or projection, and required bindings when the spec is
// parameterized — which is exactly what forces the planner's
// capability-aware decisions.
type Web struct {
	Name  string
	Site  Fetcher
	Specs map[string]*Spec
	// CostParams defaults to a WAN-ish profile when zero (Web sources are
	// much more expensive per query than the relational source).
	CostParams Cost
	// RowEstimate is the planner's cardinality guess for crawled
	// relations; zero means DefaultWebRowEstimate.
	RowEstimate int
	// MaxPages bounds one crawl; zero means DefaultMaxPages.
	MaxPages int
}

// DefaultWebRowEstimate is the planner's guess when the wrapper has none.
const DefaultWebRowEstimate = 100

// DefaultMaxPages bounds one navigation of the transition network.
const DefaultMaxPages = 10000

// NewWeb builds a Web wrapper over a fetcher from compiled specs.
func NewWeb(name string, site Fetcher, specs ...*Spec) *Web {
	m := map[string]*Spec{}
	for _, s := range specs {
		m[s.Relation] = s
	}
	return &Web{Name: name, Site: site, Specs: m, CostParams: Cost{PerQuery: 500, PerTuple: 5}}
}

// Source implements Wrapper.
func (w *Web) Source() string { return w.Name }

// Relations implements Wrapper.
func (w *Web) Relations() []string {
	out := make([]string, 0, len(w.Specs))
	for r := range w.Specs {
		out = append(out, r)
	}
	slices.Sort(out)
	return out
}

// Schema implements Wrapper.
func (w *Web) Schema(relation string) (relalg.Schema, error) {
	spec, ok := w.Specs[relation]
	if !ok {
		return relalg.Schema{}, fmt.Errorf("wrapper: %s exports no relation %s", w.Name, relation)
	}
	return spec.Schema, nil
}

// Capabilities implements Wrapper.
func (w *Web) Capabilities(relation string) (Capabilities, error) {
	spec, ok := w.Specs[relation]
	if !ok {
		return Capabilities{}, fmt.Errorf("wrapper: %s exports no relation %s", w.Name, relation)
	}
	return Capabilities{RequiredBindings: append([]string(nil), spec.Params...)}, nil
}

// EstimateRows implements Wrapper. The estimate is a configured constant
// (a Web form gives no cardinality), so the probe context is unused.
func (w *Web) EstimateRows(context.Context, string) int {
	if w.RowEstimate > 0 {
		return w.RowEstimate
	}
	return DefaultWebRowEstimate
}

// Cost implements Wrapper.
func (w *Web) Cost() Cost {
	if w.CostParams == (Cost{}) {
		return Cost{PerQuery: 500, PerTuple: 5}
	}
	return w.CostParams
}

// Query implements Wrapper: it instantiates the start URL with any
// required bindings, navigates the transition network, extracts tuples,
// and (locally) applies the remaining filters so callers get exactly what
// they asked for even though the source itself cannot select.
func (w *Web) Query(ctx context.Context, q SourceQuery) (*relalg.Relation, error) {
	spec, ok := w.Specs[q.Relation]
	if !ok {
		return nil, fmt.Errorf("wrapper: %s exports no relation %s", w.Name, q.Relation)
	}
	caps, _ := w.Capabilities(q.Relation)
	bound, err := CheckRequiredBindings(caps, q)
	if err != nil {
		return nil, err
	}
	startURL := spec.StartURL
	for _, p := range spec.Params {
		startURL = strings.ReplaceAll(startURL, "{"+p+"}", bound[p].String())
	}

	run := &crawl{ctx: ctx, w: w, spec: spec}
	if err := run.visit(startURL, spec.Start, map[string]string{}); err != nil {
		return nil, err
	}
	rel, err := ApplyFilters(run.result(), q.Filters)
	if err != nil {
		return nil, err
	}
	return ProjectColumns(rel, q.Columns)
}

// crawl is one navigation of the transition network. Its context is
// checked before every page fetch, so a canceled query stops crawling
// mid-navigation.
type crawl struct {
	ctx    context.Context
	w      *Web
	spec   *Spec
	tuples []map[string]string
	pages  int
	seen   map[string]bool
}

func (c *crawl) visit(url, stateName string, inherited map[string]string) error {
	if err := c.ctx.Err(); err != nil {
		return err
	}
	max := c.w.MaxPages
	if max == 0 {
		max = DefaultMaxPages
	}
	if c.pages >= max {
		// The transition network is bigger than the budget allows; another
		// crawl of the same site will overrun it again.
		return Permanent(fmt.Errorf("wrapper: %s: crawl exceeded %d pages", c.w.Name, max))
	}
	if c.seen == nil {
		c.seen = map[string]bool{}
	}
	key := stateName + "\x00" + url
	if c.seen[key] {
		return nil
	}
	c.seen[key] = true
	c.pages++

	body, err := c.w.Site.Get(c.ctx, url)
	if err != nil {
		return fmt.Errorf("wrapper: %s: fetching %s: %w", c.w.Name, url, err)
	}
	state := c.spec.States[stateName]

	vals := map[string]string{}
	for k, v := range inherited {
		vals[k] = v
	}
	for _, m := range state.Matches {
		subject := body
		if m.FromURL {
			subject = url
		}
		groups := m.Pattern.FindStringSubmatch(subject)
		if groups == nil {
			// The page's shape no longer matches the wrapping spec — a
			// stale spec, not network weather; retrying re-fetches the
			// same mismatched page.
			return Permanent(fmt.Errorf("wrapper: %s: state %s: pattern for %s matched nothing on %s",
				c.w.Name, state.Name, m.Column, url))
		}
		vals[m.Column] = groups[1]
	}
	if state.Rows != nil {
		for _, groups := range state.Rows.Pattern.FindAllStringSubmatch(body, -1) {
			row := map[string]string{}
			for k, v := range vals {
				row[k] = v
			}
			for i, col := range state.Rows.Columns {
				row[col] = groups[i+1]
			}
			c.tuples = append(c.tuples, row)
		}
	}
	if state.Emit {
		row := map[string]string{}
		for k, v := range vals {
			row[k] = v
		}
		c.tuples = append(c.tuples, row)
	}
	for _, f := range state.Follows {
		for _, groups := range f.Pattern.FindAllStringSubmatch(body, -1) {
			if err := c.visit(groups[1], f.Target, vals); err != nil {
				return err
			}
		}
	}
	return nil
}

// result converts the extracted string tuples into a typed relation.
func (c *crawl) result() *relalg.Relation {
	rel := relalg.NewRelation(c.spec.Relation, c.spec.Schema)
	for _, row := range c.tuples {
		t := make(relalg.Tuple, len(c.spec.Schema.Columns))
		ok := true
		for i, col := range c.spec.Schema.Columns {
			text, present := row[col.Name]
			if !present {
				ok = false
				break
			}
			v, err := relalg.ParseValue(text, col.Type)
			if err != nil {
				ok = false
				break
			}
			t[i] = v
		}
		if ok {
			rel.Tuples = append(rel.Tuples, t)
		}
	}
	return rel
}

// CurrencySpecCrawl is the wrapping specification for the simulated
// currency site's crawlable form: navigate the index, follow every pair
// link, extract from/to from the URL and the rate from the body.
const CurrencySpecCrawl = `
# currency-exchange wrapper (crawl form): r3(fromCur, toCur, rate)
relation r3(fromCur, toCur, rate:num)
start "/rates" -> index
state index
  follow "<a href=\"(/rate[^\"]*)\">" -> pair
state pair
  matchurl "from=([A-Z]+)" as fromCur
  matchurl "to=([A-Z]+)" as toCur
  match "rate: ([0-9.eE+-]+)" as rate
  emit
`

// CurrencySpecLookup is the parameterized form of the same site: the
// wrapper can only answer when fromCur and toCur are bound (a Web form),
// which exercises the planner's bind-join machinery.
const CurrencySpecLookup = `
# currency-exchange wrapper (lookup form): requires both currencies bound
relation r3(fromCur, toCur, rate:num)
param fromCur
param toCur
start "/rate?from={fromCur}&to={toCur}" -> pair
state pair
  matchurl "from=([A-Z]+)" as fromCur
  matchurl "to=([A-Z]+)" as toCur
  match "rate: ([0-9.eE+-]+)" as rate
  emit
`

// StockSpec wraps the simulated ticker site as quotes(ticker, exchange,
// price, currency).
const StockSpec = `
# stock ticker wrapper: quotes(ticker, exchange, price, currency)
relation quotes(ticker, exchange, price:num, currency)
start "/exchanges" -> index
state index
  follow "<a href=\"(/exchange/[^\"]*)\">" -> board
state board
  match "exchange: ([A-Z]+)" as exchange
  rows "<tr><td>([A-Z.]+)</td><td>([0-9.eE+-]+)</td><td>([A-Z]+)</td></tr>" as ticker, price, currency
`

// ProfileSpec wraps the simulated company directory as profiles(cname,
// country, sector, employees).
const ProfileSpec = `
# company profile wrapper: profiles(cname, country, sector, employees)
relation profiles(cname, country, sector, employees:num)
start "/companies" -> index
state index
  follow "<a href=\"(/company[^\"]*)\">" -> card
state card
  match "name: ([A-Za-z0-9 .&-]+)</p>" as cname
  match "country: ([A-Za-z ]+)</p>" as country
  match "sector: ([A-Za-z ]+)</p>" as sector
  match "employees: ([0-9]+)</p>" as employees
  emit
`
