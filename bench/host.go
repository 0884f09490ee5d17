package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/coin"
	"repro/internal/client"
	"repro/internal/fixture"
	"repro/internal/relalg"
	"repro/internal/store"
	"repro/internal/web"
	"repro/internal/wrapper"
)

// A host is one mediator installation serving a generated federation on
// a loopback listener, the way cmd/coinserver serves Figure 2, plus the
// receiver connections driving it.
type host struct {
	w     workloadDef
	fed   *federation
	sys   *coin.System
	rec   *recorder // nil unless traced
	url   string
	srv   *http.Server
	srvCh chan error
	conns []*client.Conn
	texts []request // the workload's distinct queries and their expected answers

	warmNs    int64 // Mediator.Warm after the last invalidation
	issued    int   // requests sent by a Unique workload's client so far
	extraSrcs int   // sources registered by churn so far
}

// addSource registers a wrapped source the way coin.System's unexported
// addSource does: catalog, then one registry entry per relation, then
// the compiled mediation programs are dropped.
func addSource(sys *coin.System, w wrapper.Wrapper, elevations map[string]*coin.Elevation) error {
	if err := sys.Catalog.AddSource(w); err != nil {
		return err
	}
	for _, rel := range w.Relations() {
		schema, err := w.Schema(rel)
		if err != nil {
			return err
		}
		if err := sys.Registry.RegisterRelation(rel, schema, elevations[rel]); err != nil {
			return err
		}
	}
	sys.Mediator().Invalidate()
	return nil
}

// buildSystem assembles the mediator over fed: the paper's domain model
// and contexts c1 and c2, r1 and r2 as relational sources, and the rates
// as relation r3 - a table, or the simulated currency site behind the
// Web wrapper. Sources are tapped when they must be slow or traced.
func buildSystem(w workloadDef, fed *federation, traced bool) (*coin.System, error) {
	sys := coin.New(fixture.Model())
	for _, c := range []*coin.Context{fixture.ContextC1(), fixture.ContextC2()} {
		if err := sys.AddContext(c); err != nil {
			return nil, err
		}
	}
	wrap := func(src wrapper.Wrapper, delay time.Duration) wrapper.Wrapper {
		if delay > 0 || traced {
			return tap(src, delay)
		}
		return src
	}

	r1 := make([]relalg.Tuple, len(fed.r1))
	for i, r := range fed.r1 {
		r1[i] = relalg.Tuple{relalg.StrV(r.name), relalg.NumV(r.revenue), relalg.StrV(r.currency)}
	}
	r2 := make([]relalg.Tuple, len(fed.r2))
	for i, r := range fed.r2 {
		r2[i] = relalg.Tuple{relalg.StrV(r.name), relalg.NumV(r.expenses)}
	}
	src1, err := relationalSource("source1", "r1", fixture.R1Schema(), r1)
	if err != nil {
		return nil, err
	}
	src2, err := relationalSource("source2", "r2", fixture.R2Schema(), r2)
	if err != nil {
		return nil, err
	}
	if err := addSource(sys, wrap(src1, w.Delay), elevation("r1", "c1", "revenue")); err != nil {
		return nil, err
	}
	if err := addSource(sys, wrap(src2, w.Delay), elevation("r2", "c2", "expenses")); err != nil {
		return nil, err
	}

	var rates wrapper.Wrapper
	if w.Web == "" {
		var r3 []relalg.Tuple
		for _, p := range fed.ratePairs() {
			r3 = append(r3, relalg.Tuple{relalg.StrV(p.from), relalg.StrV(p.to), relalg.NumV(p.rate)})
		}
		src3, err := relationalSource("currencyweb", "r3", fixture.R3Schema(), r3)
		if err != nil {
			return nil, err
		}
		rates = wrap(src3, w.Delay)
	} else {
		pages := map[web.RatePair]float64{}
		for _, p := range fed.ratePairs() {
			pages[web.RatePair{From: p.from, To: p.to}] = p.rate
		}
		var site wrapper.Fetcher = web.NewCurrencySite(pages)
		if w.Delay > 0 || traced {
			site = tappedSite{site, w.Delay}
		}
		specText := wrapper.CurrencySpecCrawl
		if w.Web == "lookup" {
			specText = wrapper.CurrencySpecLookup
		}
		spec, err := wrapper.ParseSpec(specText)
		if err != nil {
			return nil, err
		}
		// The page delay is the Web source's delay; its wrapper adds none.
		rates = wrap(wrapper.NewWeb("currencyweb", site, spec), 0)
	}
	if err := addSource(sys, rates, nil); err != nil {
		return nil, err
	}
	if err := sys.AddAncillary("rate", "r3"); err != nil {
		return nil, err
	}
	sys.Executor().DefaultParallelism = runtime.GOMAXPROCS(0)
	return sys, nil
}

// relationalSource wraps one table of rows as an in-memory database, the
// stand-in for the paper's Oracle source.
func relationalSource(db, table string, schema relalg.Schema, rows []relalg.Tuple) (*wrapper.Relational, error) {
	d := store.NewDB(db)
	t, err := d.CreateTable(table, schema)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		if err := t.Insert(row); err != nil {
			return nil, err
		}
	}
	return wrapper.NewRelational(d), nil
}

func elevation(relation, context, column string) map[string]*coin.Elevation {
	return map[string]*coin.Elevation{relation: {
		Relation: relation,
		Context:  context,
		Columns: []coin.ElevatedColumn{
			{Column: "cname", SemType: "companyName"},
			{Column: column, SemType: "companyFinancials"},
		},
	}}
}

// newHost builds the federation's mediator, serves it, connects the
// workload's clients and warms the receiver context.
func newHost(w workloadDef, fed *federation, traced bool) (*host, error) {
	sys, err := buildSystem(w, fed, traced)
	if err != nil {
		return nil, err
	}
	h := &host{w: w, fed: fed, sys: sys, srvCh: make(chan error, 1)}
	h.texts = h.allTexts()
	handler := sys.Handler()
	if traced {
		h.rec = newRecorder(sys, w.Clients)
		handler = h.rec
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// cmd/coinserver's limits on slow or stuck clients.
	h.srv = &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	h.url = "http://" + ln.Addr().String()
	go func() { h.srvCh <- h.srv.Serve(ln) }()

	t0 := time.Now()
	if err := sys.Mediator().Warm("c2"); err != nil {
		h.close()
		return nil, err
	}
	h.warmNs = int64(time.Since(t0))
	for c := 0; c < w.Clients; c++ {
		base := h.url
		if traced {
			base += fmt.Sprintf("/c%d", c)
		}
		conn, err := client.Open(base)
		if err != nil {
			h.close()
			return nil, err
		}
		h.conns = append(h.conns, conn)
	}
	return h, nil
}

// close stops the server and waits for its goroutine.
func (h *host) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(ctx); err != nil {
		h.srv.Close()
	}
	<-h.srvCh
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// churn registers one more relational source in a context of its own -
// the paper's "integrating a new source" operation (E6) - which drops
// the compiled mediation program the next request then has to rebuild.
func (h *host) churn() error {
	h.extraSrcs++
	name := fmt.Sprintf("x%04d", h.extraSrcs)
	ctx := coin.NewContext("c_" + name)
	if err := ctx.DeclareConst("companyFinancials", "scaleFactor", 1000); err != nil {
		return err
	}
	if err := ctx.DeclareConst("companyFinancials", "currency", "EUR"); err != nil {
		return err
	}
	if err := h.sys.AddContext(ctx); err != nil {
		return err
	}
	row := relalg.Tuple{relalg.StrV("NEWCO"), relalg.NumV(1), relalg.StrV("EUR")}
	src, err := relationalSource("source_"+name, name, fixture.R1Schema(), []relalg.Tuple{row})
	if err != nil {
		return err
	}
	return addSource(h.sys, src, elevation(name, ctx.Name, "revenue"))
}
