// Command coinquery sends SQL to a COIN mediation server (or runs it
// against the in-process Figure 2 demo system) and prints the answer as a
// table — the reproduction's equivalent of an ODBC application.
//
// Usage:
//
//	coinquery -context c2 'SELECT rl.cname, rl.revenue FROM r1 rl, r2 ...'
//	coinquery -server http://localhost:8095 -context c2 '...'
//	coinquery -naive '...'           # skip mediation (the wrong answer)
//	coinquery -show-mediated '...'
//	coinquery -explain '...'         # print the execution plan, don't run
//	coinquery -analyze '...'         # EXPLAIN ANALYZE: run and show est vs actual
//	coinquery -timeout 2s '...'      # bound the query session
//	coinquery -max-rows 100 '...'    # truncate the answer
//	coinquery -max-concurrent-per-source 2 '...'  # bound per-source fetch concurrency
//	coinquery -stream '...'          # NDJSON wire path: rows print as they arrive
//	coinquery -partial '...'         # degrade on source faults: drop failed branches, warn on stderr
//	coinquery -retry-budget 10 '...' # cap retries the session may spend across sources
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/coin"
	"repro/internal/client"
	"repro/internal/planner"
)

// queryConfig carries what to do with the query from flags to run; its
// governor limits travel beside it as one planner.Limits.
type queryConfig struct {
	naive        bool
	showMediated bool
	explain      bool
	analyze      bool
	stream       bool
}

func main() {
	serverURL := flag.String("server", "", "mediation server URL (empty: run in-process demo system)")
	contextName := flag.String("context", "c2", "receiver context")
	naive := flag.Bool("naive", false, "execute without mediation")
	showMediated := flag.Bool("show-mediated", false, "print the mediated SQL before the answer")
	explain := flag.Bool("explain", false, "print the execution plan instead of running the query")
	analyze := flag.Bool("analyze", false, "EXPLAIN ANALYZE: execute the query and print the plan with actual rows/queries/cost")
	timeout := flag.Duration("timeout", 0, "query session timeout (0: none)")
	maxRows := flag.Int("max-rows", 0, "cap on result rows; the answer is truncated (0: unlimited)")
	maxPerSource := flag.Int("max-concurrent-per-source", 0, "cap on the session's concurrent fetches per source (0: dispatcher defaults)")
	stream := flag.Bool("stream", false, "stream rows as they are produced instead of buffering the answer")
	partial := flag.Bool("partial", false, "return partial results when a source fails: drop the failed branches, print warnings to stderr")
	retryBudget := flag.Int("retry-budget", 0, "cap on retries the query session may spend across all sources (0: per-operation policy only)")
	flag.Parse()

	sql := strings.TrimSpace(strings.Join(flag.Args(), " "))
	if sql == "" {
		fmt.Fprintln(os.Stderr, "usage: coinquery [-server URL] [-context NAME] [-naive] [-timeout D] [-max-rows N] [-stream] 'SQL'")
		os.Exit(2)
	}
	cfg := queryConfig{naive: *naive, showMediated: *showMediated, explain: *explain, analyze: *analyze, stream: *stream}
	lim := planner.Limits{Timeout: *timeout, MaxRows: *maxRows, MaxConcurrentPerSource: *maxPerSource,
		RetryBudget: *retryBudget, PartialResults: *partial}
	// Interrupting the command cancels the query in flight: locally the
	// session stops its source fetches, remotely the abandoned request
	// makes the server cancel its session.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, *serverURL, *contextName, sql, cfg, lim)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "coinquery:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, serverURL, receiverCtx, sql string, cfg queryConfig, lim planner.Limits) error {
	if serverURL != "" {
		return runRemote(ctx, serverURL, receiverCtx, sql, cfg, lim)
	}
	return runLocal(ctx, receiverCtx, sql, cfg, lim)
}

func runRemote(ctx context.Context, serverURL, receiverCtx, sql string, cfg queryConfig, lim planner.Limits) error {
	conn, err := client.Open(serverURL)
	if err != nil {
		return err
	}
	if cfg.explain || cfg.analyze {
		plan, err := conn.Plan(ctx, sql, receiverCtx, cfg.analyze, lim)
		if err != nil {
			return err
		}
		fmt.Print(plan)
		return nil
	}
	if cfg.stream {
		cur, err := conn.QueryStream(ctx, sql, receiverCtx, cfg.naive, lim)
		if err != nil {
			return err
		}
		defer cur.Close()
		if cfg.showMediated && cur.MediatedSQL() != "" {
			fmt.Printf("-- mediated into %d branch(es):\n%s\n\n", cur.Branches(), cur.MediatedSQL())
		}
		names := make([]string, len(cur.Columns()))
		for i, c := range cur.Columns() {
			names[i] = c.Name
		}
		fmt.Println(strings.Join(names, "\t"))
		for cur.Next() {
			cells := make([]string, len(cur.Row()))
			for i, v := range cur.Row() {
				cells[i] = fmt.Sprintf("%v", v)
			}
			fmt.Println(strings.Join(cells, "\t"))
		}
		printWarnings(cur.Warnings())
		return cur.Err()
	}
	if cfg.naive {
		res, err := conn.QueryNaiveCtx(ctx, sql, lim)
		if err != nil {
			return err
		}
		fmt.Print(res.String())
		return nil
	}
	res, err := conn.QueryCtx(ctx, sql, receiverCtx, lim)
	if err != nil {
		return err
	}
	if cfg.showMediated {
		fmt.Printf("-- mediated into %d branch(es):\n%s\n\n", res.Branches, res.MediatedSQL)
	}
	fmt.Print(res.String())
	printWarnings(res.Warnings)
	return nil
}

// printWarnings reports dropped mediation branches of a partial answer on
// stderr, keeping stdout a clean table.
func printWarnings(warns []planner.Warning) {
	for _, w := range warns {
		if w.Source != "" {
			fmt.Fprintf(os.Stderr, "coinquery: warning: branch %d dropped (source %s): %s\n", w.Branch, w.Source, w.Message)
		} else {
			fmt.Fprintf(os.Stderr, "coinquery: warning: branch %d dropped: %s\n", w.Branch, w.Message)
		}
	}
}

func runLocal(ctx context.Context, receiverCtx, sql string, cfg queryConfig, lim planner.Limits) error {
	sys := coin.Figure2System()
	if cfg.explain || cfg.analyze {
		plan, err := sys.Plan(ctx, sql, receiverCtx, cfg.analyze, lim)
		if err != nil {
			return err
		}
		fmt.Print(plan)
		return nil
	}
	if !cfg.stream && !cfg.naive {
		med, err := sys.Mediate(sql, receiverCtx)
		if err != nil {
			return err
		}
		if cfg.showMediated {
			fmt.Printf("-- mediated into %d branch(es):\n%s\n\n", len(med.Branches), med.SQL())
		}
		rows, warns, err := sys.ExecuteWarnCtx(ctx, med, lim)
		if err != nil {
			return err
		}
		fmt.Print(rows.String())
		printWarnings(warns)
		return nil
	}
	rs, err := sys.Run(ctx, sql, receiverCtx, cfg.naive, lim)
	if err != nil {
		return err
	}
	defer rs.Close()
	if !cfg.stream {
		rows, err := rs.Collect()
		if err != nil {
			return err
		}
		fmt.Print(rows.String())
		return nil
	}
	if cfg.showMediated && rs.Mediation() != nil {
		fmt.Printf("-- mediated into %d branch(es):\n%s\n\n",
			len(rs.Mediation().Branches), rs.Mediation().SQL())
	}
	fmt.Println(strings.Join(rs.Schema().Names(), "\t"))
	for {
		t, ok, err := rs.Next()
		if err != nil || !ok {
			printWarnings(rs.Warnings())
			return err
		}
		cells := make([]string, len(t))
		for i, v := range t {
			cells[i] = v.String()
		}
		fmt.Println(strings.Join(cells, "\t"))
	}
}
