// Command blasbench reproduces the paper's evaluation section (§5): each
// -fig value regenerates the workload behind one figure of the paper and
// prints the corresponding table.
//
// Usage:
//
//	blasbench -fig 13            # relational engine comparison
//	blasbench -fig 16 -factors 1,2,3,4,5
//	blasbench -all               # everything (as used for EXPERIMENTS.md)
//	blasbench -fig plan                   # fixed vs greedy physical plan order
//	blasbench -fig serve                  # serving tier: cold vs warm plan cache over HTTP
//
// With -json DIR every figure additionally writes its measurements as
// DIR/BENCH_<fig>.json (schema blas-bench-trajectory/v1: figure, git
// revision, GOMAXPROCS, and per-measurement engine/translator/
// ns_per_op/visited/page_misses). -validate GLOB checks
// previously written files and exits nonzero on any malformed one —
// CI's gate before archiving the trajectory.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/bench"
)

func main() {
	fig := flag.String("fig", "", "figure to reproduce: 11, 12, 13, 14, 15, 16, 17, 18, plan or serve")
	all := flag.Bool("all", false, "run every figure")
	factor := flag.Int("factor", 1, "data scale factor for figures 13-15 and serve")
	factorsStr := flag.String("factors", "1,2,3,4,5", "scale factors for figures 16-18")
	repeats := flag.Int("repeats", 3, "cold-cache repetitions per measurement")
	seed := flag.Int64("seed", 1, "data generator seed")
	jsonDir := flag.String("json", "", "directory to write BENCH_<fig>.json trajectories into (empty = no JSON)")
	validate := flag.String("validate", "", "validate BENCH_*.json files matching this glob and exit")
	flag.Parse()

	if *validate != "" {
		validateTrajectories(*validate)
		return
	}
	factors, err := parseFactors(*factorsStr)
	if err != nil {
		fail(err)
	}
	h := bench.New()
	h.Repeats = *repeats
	h.Seed = *seed
	defer h.Close()

	run := func(name string) error {
		h.ResetMeasurements()
		err := func() error {
			switch name {
			case "11":
				return h.Fig11(os.Stdout)
			case "12":
				return h.Fig12(os.Stdout)
			case "13":
				return h.Fig13(os.Stdout, *factor)
			case "14":
				return h.Fig14(os.Stdout, *factor)
			case "15":
				return h.Fig15(os.Stdout, *factor)
			case "16":
				return h.Scalability(os.Stdout, "16", "QA1", factors)
			case "17":
				return h.Scalability(os.Stdout, "17", "QA2", factors)
			case "18":
				return h.Scalability(os.Stdout, "18", "QA3", factors)
			case "plan":
				// Not a paper figure: fixed vs greedy physical plan order.
				return h.PlanFig(os.Stdout)
			case "serve":
				// Not a paper figure: blasd serving tier, cold vs warm.
				return serveFigure(os.Stdout, h, *factor)
			}
			return fmt.Errorf("unknown figure %q", name)
		}()
		if err != nil || *jsonDir == "" {
			return err
		}
		return writeTrajectory(*jsonDir, name, h.Measurements())
	}

	if *all {
		for _, name := range []string{"11", "12", "13", "14", "15", "16", "17", "18"} {
			if err := run(name); err != nil {
				fail(err)
			}
			fmt.Println()
		}
		return
	}
	if *fig == "" {
		fmt.Fprintln(os.Stderr, "usage: blasbench -fig N | -all")
		os.Exit(2)
	}
	if err := run(*fig); err != nil {
		fail(err)
	}
}

func parseFactors(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad factor %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no factors given")
	}
	return out, nil
}

// writeTrajectory persists one figure's measurements as
// dir/BENCH_<fig>.json. Figures that only print plans (Fig. 11) record
// no measurements and are skipped.
func writeTrajectory(dir, figure string, ms []bench.Measurement) error {
	if len(ms) == 0 {
		fmt.Fprintf(os.Stderr, "blasbench: fig %s recorded no measurements, skipping JSON\n", figure)
		return nil
	}
	t := bench.NewTrajectory(figure)
	for _, m := range ms {
		t.Add(m)
	}
	path, err := t.WriteFile(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "blasbench: wrote %s (%d records)\n", path, len(ms))
	return nil
}

// validateTrajectories checks every file matching the glob, printing
// each verdict; any malformed file (or an empty match set) exits 1.
func validateTrajectories(glob string) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		fail(err)
	}
	if len(paths) == 0 {
		fail(fmt.Errorf("-validate %q matched no files", glob))
	}
	ok := true
	for _, path := range paths {
		if err := bench.ValidateTrajectoryFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "blasbench: INVALID:", err)
			ok = false
			continue
		}
		fmt.Printf("blasbench: ok %s\n", path)
	}
	if !ok {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "blasbench:", err)
	os.Exit(1)
}
