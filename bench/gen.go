package main

import (
	"fmt"
	"math"
	"math/rand"
)

// A federation is one generated data set of the paper's Figure 2 shape:
// r1(cname, revenue, currency) reported in source context c1 (each row in
// its own currency, JPY rows in thousands), r2(cname, expenses) already in
// the receiver's context c2 (USD, scale 1), and the rates into USD.
//
// The generator separates shape from content. The shape - which slot has
// which currency, revenue rank and expenses rank - depends only on n and
// the number of currencies. The seed decides the content: which company
// name sits in which slot, the exchange rates (and with them every stored
// non-USD revenue), and the order rows are stored in. Answers therefore
// have the same size for every seed while their rows differ, so count
// metrics repeat exactly across seeds and a count that moves is a change
// in the program.
type federation struct {
	currencies []string
	rates      map[string]float64 // currency -> USD; no entry for USD
	r1         []r1Row
	r2         []r2Row
	expenses   map[string]float64 // by company, for the oracle's join
}

type r1Row struct {
	name     string
	revenue  float64 // as stored: source context c1
	currency string
}

type r2Row struct {
	name     string
	expenses float64
}

// Revenues are rank*revenueStep USD and expenses rank*revenueStep +
// expensesOffset, so no revenue ties with an expense; a literal K for
// rank q is q*revenueStep + literalBase + u with u < literalSpan, which
// keeps it strictly between revenue q and expense q whatever u is.
const (
	revenueStep    = 1_000_000
	expensesOffset = 500_000
	literalBase    = 100_000
	literalSpan    = 299_993 // prime, so u = i*step mod span does not repeat for span requests
	shapeSeed      = 0x5eed
)

func currencyCodes(n int) []string {
	codes := []string{"USD", "JPY", "EUR", "GBP"}
	for i := 0; len(codes) < n; i++ {
		codes = append(codes, fmt.Sprintf("X%c%c", 'A'+i/26, 'A'+i%26))
	}
	return codes[:n]
}

func newFederation(n, currencies int, seed int64) *federation {
	shape := rand.New(rand.NewSource(shapeSeed + int64(n)*131 + int64(currencies)))
	revRank, expRank := shape.Perm(n), shape.Perm(n)

	content := rand.New(rand.NewSource(seed))
	f := &federation{
		currencies: currencyCodes(currencies),
		rates:      map[string]float64{},
		expenses:   make(map[string]float64, n),
	}
	for _, c := range f.currencies {
		switch c {
		case "USD":
		case "JPY":
			f.rates[c] = 0.0096 // the paper's rate
		default:
			f.rates[c] = float64(1000+content.Intn(19000)) / 10000
		}
	}
	names := content.Perm(n)
	f.r1 = make([]r1Row, n)
	f.r2 = make([]r2Row, n)
	for slot := 0; slot < n; slot++ {
		name := fmt.Sprintf("CO%05d", names[slot])
		cur := f.currencies[slot%len(f.currencies)]
		usd := float64(revRank[slot]+1) * revenueStep
		f.r1[slot] = r1Row{name, usd / f.sourceFactor(cur), cur}
		exp := float64(expRank[slot]+1)*revenueStep + expensesOffset
		f.r2[slot] = r2Row{name, exp}
		f.expenses[name] = exp
	}
	content.Shuffle(n, func(i, j int) { f.r1[i], f.r1[j] = f.r1[j], f.r1[i] })
	content.Shuffle(n, func(i, j int) { f.r2[i], f.r2[j] = f.r2[j], f.r2[i] })
	return f
}

// sourceFactor is what one stored unit of a c1 revenue is worth in the
// receiver's context: context c1 scales JPY figures by 1000, and every
// non-USD currency converts at its rate.
func (f *federation) sourceFactor(currency string) float64 {
	switch currency {
	case "USD":
		return 1
	case "JPY":
		return 1000 * f.rates[currency]
	}
	return f.rates[currency]
}

// literal places K above revenue rank q; u in [0, literalSpan) tells
// otherwise identical texts apart.
func literal(q, u int) int { return q*revenueStep + literalBase + u }

// An answer is what the oracle expects back: how many rows, an
// order-insensitive checksum of them, and for tSum the total itself
// (compared within a tolerance, since the engine may add in any order).
type answer struct {
	rows  int
	check uint64
	total float64
}

// rowCheck hashes one (name, value) row. Values are whole USD amounts by
// construction, so rounding absorbs the last-bit differences between the
// oracle's arithmetic and the engine's.
func rowCheck(name string, v float64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	h ^= uint64(int64(math.Round(v))) * 0x9e3779b97f4a7c15
	return h * 0xff51afd7ed558ccd
}

// expect is the oracle: the answer to template t with literal k in
// receiver context c2, computed from the stored rows with plain Go
// arithmetic and no part of the engine.
func (f *federation) expect(t, k int) answer {
	var a answer
	kf := float64(k)
	switch t {
	case tR2:
		for _, r := range f.r2 {
			if r.expenses > kf {
				a.rows++
				a.check += rowCheck(r.name, r.expenses)
			}
		}
		return a
	}
	for _, r := range f.r1 {
		usd := math.Round(r.revenue * f.sourceFactor(r.currency))
		if usd <= kf || (t == tJoin && usd <= f.expenses[r.name]) {
			continue
		}
		a.rows++
		a.check += rowCheck(r.name, usd)
		a.total += usd
	}
	if t == tSum {
		a.rows, a.check = 1, 0
	}
	return a
}

// verifier checks one response against the oracle row by row, as the
// rows arrive.
type verifier struct {
	t    int
	want answer
	got  answer
	prev float64
	bad  string
}

func newVerifier(t int, want answer) *verifier {
	return &verifier{t: t, want: want, prev: math.Inf(1)}
}

func (v *verifier) row(values []interface{}) {
	v.got.rows++
	if v.t == tSum {
		total, ok := values[0].(float64)
		if len(values) != 1 || !ok {
			v.bad = fmt.Sprintf("malformed SUM row %v", values)
			return
		}
		v.got.total = total
		return
	}
	if len(values) != 2 {
		v.bad = fmt.Sprintf("row of %d values, want 2", len(values))
		return
	}
	name, ok1 := values[0].(string)
	val, ok2 := values[1].(float64)
	if !ok1 || !ok2 {
		v.bad = fmt.Sprintf("malformed row %v", values)
		return
	}
	if v.t == tOrder {
		if math.Round(val) > math.Round(v.prev) {
			v.bad = fmt.Sprintf("ORDER BY DESC broken: %v after %v", val, v.prev)
		}
		v.prev = val
	}
	v.got.check += rowCheck(name, val)
}

func (v *verifier) err() error {
	switch {
	case v.bad != "":
		return fmt.Errorf("oracle: %s", v.bad)
	case v.got.rows != v.want.rows:
		return fmt.Errorf("oracle: %d rows, want %d", v.got.rows, v.want.rows)
	case v.t == tSum:
		if math.Abs(v.got.total-v.want.total) > 1e-9*v.want.total {
			return fmt.Errorf("oracle: SUM %v, want %v", v.got.total, v.want.total)
		}
	case v.got.check != v.want.check:
		return fmt.Errorf("oracle: checksum %x, want %x", v.got.check, v.want.check)
	}
	return nil
}

type ratePair struct {
	from, to string
	rate     float64
}

// ratePairs lists relation r3: every currency to USD and back, so the
// mediated query has to pick the right direction.
func (f *federation) ratePairs() []ratePair {
	var out []ratePair
	for _, c := range f.currencies {
		if r, ok := f.rates[c]; ok {
			out = append(out, ratePair{c, "USD", r}, ratePair{"USD", c, 1 / r})
		}
	}
	return out
}
