// Command tabula-bench reproduces the paper's experimental evaluation:
// every table and figure of Section V has a named experiment that prints
// the corresponding rows/series.
//
// Usage:
//
//	tabula-bench -experiment fig11a [-rows 60000] [-queries 60] [-seed 42]
//	tabula-bench -experiment all -out results.txt
//	tabula-bench -init-json BENCH_init.json [-workers 1,2,4,8]
//	tabula-bench -append-json BENCH_append.json
//	tabula-bench -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/tabula-db/tabula/internal/harness"
	"github.com/tabula-db/tabula/internal/server"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment id (fig8a..fig14b, table1, table2) or 'all'")
		rows       = flag.Int("rows", harness.DefaultScale.Rows, "synthetic NYCtaxi rows")
		queries    = flag.Int("queries", harness.DefaultScale.Queries, "queries per workload")
		seed       = flag.Int64("seed", harness.DefaultScale.Seed, "random seed")
		out        = flag.String("out", "", "also write reports to this file")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		quiet      = flag.Bool("quiet", false, "suppress progress output")
		initJSON   = flag.String("init-json", "", "write an initialization stage-timing sweep to this JSON file and exit")
		workers    = flag.String("workers", "", "comma-separated worker counts for -init-json (default 1,2,4,GOMAXPROCS)")
		appendJSON = flag.String("append-json", "", "write append-latency and cache-retention measurements to this JSON file and exit")
	)
	flag.Parse()

	if *list {
		for _, id := range harness.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}
	if *initJSON != "" {
		var progress io.Writer = os.Stderr
		if *quiet {
			progress = nil
		}
		var counts []int
		if *workers != "" {
			for _, tok := range strings.Split(*workers, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(tok))
				if err != nil || n < 1 {
					fmt.Fprintf(os.Stderr, "tabula-bench: bad -workers entry %q\n", tok)
					os.Exit(2)
				}
				counts = append(counts, n)
			}
		}
		f, err := os.Create(*initJSON)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tabula-bench: %v\n", err)
			os.Exit(1)
		}
		scale := harness.Scale{Rows: *rows, Queries: *queries, Seed: *seed}
		rep, err := harness.WriteInitStageJSON(f, scale, counts, progress)
		if err != nil {
			//lint:ignore droppederr best-effort cleanup; the write error below is the one worth reporting
			f.Close()
			fmt.Fprintf(os.Stderr, "tabula-bench: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "tabula-bench: %v\n", err)
			os.Exit(1)
		}
		if k := rep.DryRunKernel; k != nil {
			fmt.Printf("wrote %s (dry-run scan: vectorized %.1f ns/row vs scalar %.1f ns/row: %.2fx; allocs/op %.0f vs %.0f: %.1fx fewer)\n",
				*initJSON, k.VectorizedNsPerRow, k.ScalarNsPerRow, k.Speedup,
				k.VectorizedAllocsPerOp, k.ScalarAllocsPerOp, k.AllocReduction)
		} else {
			fmt.Printf("wrote %s\n", *initJSON)
		}
		return
	}
	if *appendJSON != "" {
		var progress io.Writer = os.Stderr
		if *quiet {
			progress = nil
		}
		rep, err := server.MeasureAppend(*rows, *seed, progress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tabula-bench: %v\n", err)
			os.Exit(1)
		}
		f, err := os.Create(*appendJSON)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tabula-bench: %v\n", err)
			os.Exit(1)
		}
		if err := harness.WriteAppendJSON(f, rep); err != nil {
			//lint:ignore droppederr best-effort cleanup; the write error below is the one worth reporting
			f.Close()
			fmt.Fprintf(os.Stderr, "tabula-bench: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "tabula-bench: %v\n", err)
			os.Exit(1)
		}
		shard := rep.Variant("sharded")
		fmt.Printf("wrote %s (sharded retention %.0f%% vs monolithic %.0f%%; one-row append touched %d/%d shards; append latency ratio %.2fx)\n",
			*appendJSON, rep.ShardedRetention*100, rep.MonolithicRetention*100,
			shard.ShardsTouchedOneRow, shard.Shards, rep.AppendLatencyRatio)
		return
	}
	if *experiment == "" {
		fmt.Fprintln(os.Stderr, "tabula-bench: -experiment is required (or -list)")
		flag.Usage()
		os.Exit(2)
	}

	var ids []string
	if *experiment == "all" {
		ids = harness.ExperimentIDs()
	} else {
		for _, id := range strings.Split(*experiment, ",") {
			id = strings.TrimSpace(id)
			if _, ok := harness.Experiments[id]; !ok {
				fmt.Fprintf(os.Stderr, "tabula-bench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}

	scale := harness.Scale{Rows: *rows, Queries: *queries, Seed: *seed}
	var progress io.Writer = os.Stderr
	if *quiet {
		progress = nil
	}
	writers := []io.Writer{os.Stdout}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tabula-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		writers = append(writers, f)
	}
	w := io.MultiWriter(writers...)

	fmt.Fprintf(w, "tabula-bench: rows=%d queries=%d seed=%d\n\n", *rows, *queries, *seed)
	seen := map[string]bool{}
	for _, id := range ids {
		reps, err := harness.Experiments[id](scale, progress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tabula-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		for _, r := range reps {
			// fig10a/fig10b (and the a/b query-sweep pairs) share runners
			// that return both panels; drop duplicates when running 'all'.
			key := r.ID + "|" + r.Title
			if seen[key] {
				continue
			}
			seen[key] = true
			fmt.Fprintln(w, r.String())
		}
	}
}
