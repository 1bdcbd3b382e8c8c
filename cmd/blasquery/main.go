// Command blasquery runs XPath queries against a BLAS store (or directly
// against an XML file, shredding it in memory first).
//
// Usage:
//
//	blasquery -store auction.blas -q '/site/regions//item' -translator pushup
//	blasquery -xml doc.xml -q '//title' -engine twig
//	blasquery -store s.blas -q '//item[shipping]' -explain
//	blasquery -xml doc.xml -q '//title' -trace -stats json   # machine-readable ExecStats
//
// -stats selects how execution statistics print: "text" (one summary
// line, the default), "json" (the full ExecStats as one JSON object on
// stdout — including the phase breakdown when -trace is set) or "none".
// -trace records per-phase wall times (parse, translate, order, scan,
// join/sweep, finalize, decode) into the stats.
//
// -explain also prints the physical order the planner chose: fragment
// scans and structural joins with their per-fragment run-length
// estimates probed from the B+-tree indexes. -no-reorder forces the
// translator's fixed order instead (both for -explain and execution) —
// the A/B escape hatch for plan-order debugging.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	blas "repro"
)

func main() {
	store := flag.String("store", "", "store directory (from blasload)")
	xmlFile := flag.String("xml", "", "XML file to shred in memory instead of -store")
	query := flag.String("q", "", "XPath query")
	translator := flag.String("translator", "auto", "auto, dlabel, split, pushup or unfold")
	engine := flag.String("engine", "relational", "relational or twig")
	explain := flag.Bool("explain", false, "print the plan, SQL and algebra instead of executing")
	limit := flag.Int("limit", 20, "maximum matches to print (0 = all)")
	stats := flag.String("stats", "text", "execution statistics format: text, json or none")
	trace := flag.Bool("trace", false, "record a per-phase wall-time breakdown into the stats")
	parallelism := flag.Int("parallelism", 0, "worker pool per query for relational D-join chunks: 0 = GOMAXPROCS, 1 = sequential")
	noReorder := flag.Bool("no-reorder", false, "skip greedy selectivity ordering; run the translator's fixed order")
	flag.Parse()

	if *query == "" || (*store == "") == (*xmlFile == "") {
		fmt.Fprintln(os.Stderr, "usage: blasquery (-store DIR | -xml FILE) -q QUERY")
		os.Exit(2)
	}
	if *parallelism < 0 {
		fmt.Fprintf(os.Stderr, "blasquery: -parallelism must be >= 0 (0 = GOMAXPROCS, 1 = sequential), got %d\n", *parallelism)
		os.Exit(2)
	}
	switch *stats {
	case "text", "json", "none":
	default:
		fmt.Fprintf(os.Stderr, "blasquery: -stats must be text, json or none, got %q\n", *stats)
		os.Exit(2)
	}

	var st *blas.Store
	var err error
	if *store != "" {
		st, err = blas.Open(blas.Options{Dir: *store})
	} else {
		st, err = blas.BuildFromFile(*xmlFile, blas.Options{})
	}
	if err != nil {
		fail(err)
	}
	defer st.Close()

	opts := blas.QueryOptions{
		Translator:  blas.Translator(*translator),
		Engine:      blas.Engine(*engine),
		Parallelism: *parallelism,
		Trace:       *trace,
		NoReorder:   *noReorder,
	}
	if *explain {
		ex, err := st.Explain(*query, opts)
		if err != nil {
			fail(err)
		}
		fmt.Printf("translator: %s   D-joins: %d   selections: %d equality, %d range\n",
			ex.Translator, ex.Joins, ex.EqSels, ex.RangeSels)
		if ex.Note != "" {
			fmt.Println("note:", ex.Note)
		}
		fmt.Println("\n-- plan --")
		fmt.Println(ex.PlanText)
		fmt.Println("-- order --")
		fmt.Print(ex.OrderText)
		fmt.Println("\n-- SQL --")
		fmt.Println(ex.SQL)
		fmt.Println("\n-- algebra --")
		fmt.Println(ex.Algebra)
		return
	}

	res, err := st.Query(*query, opts)
	if err != nil {
		fail(err)
	}
	n := len(res.Matches)
	show := n
	if *limit > 0 && show > *limit {
		show = *limit
	}
	for _, m := range res.Matches[:show] {
		if m.Value != "" {
			fmt.Printf("%s\t%q\n", m.Path, m.Value)
		} else {
			fmt.Printf("%s\t<%s> [%d,%d]\n", m.Path, m.Tag, m.Start, m.End)
		}
	}
	if show < n {
		fmt.Printf("... and %d more\n", n-show)
	}
	switch *stats {
	case "json":
		out, err := json.MarshalIndent(res.Stats, "", "  ")
		if err != nil {
			fail(err)
		}
		fmt.Printf("%s\n", out)
	case "text":
		fmt.Printf("\n%d matches in %s (%s/%s): %d elements visited, %d page misses, %d joins\n",
			n, res.Stats.Elapsed, res.Stats.Translator, res.Stats.Engine,
			res.Stats.VisitedElements, res.Stats.PageMisses, res.Stats.Joins)
		if res.Stats.EarlyTerminated {
			fmt.Println("early terminated: an empty intermediate (or planner probe) proved the result empty")
		}
		if p := res.Stats.Phases; p != nil {
			fmt.Printf("phases: parse %s, translate %s, order %s, scan %s, join %s, sweep %s, finalize %s, decode %s (%d records)\n",
				p.Parse, p.Translate, p.Order, p.Scan, p.Join, p.Sweep, p.Finalize, p.Decode, p.DecodedRecords)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "blasquery:", err)
	os.Exit(1)
}
