// Command benchmark is the repository's benchmark: four workloads over
// generated Auction documents, end-to-end metrics through the public
// surfaces (blas.Store.Query, blasd's POST /query, blas.BuildFromFile)
// and per-layer metrics from a separate traced pass. BENCHMARK.json at
// the repository root names the workloads and metrics; README.md in this
// directory explains them.
//
//	go run ./benchmark [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-repeats N] [-out FILE] [-spans FILE]
//	go run ./benchmark -compare A.json B.json
//
// With one workload and -trace given it prints, as the last line of
// standard output, the JSON object the benchmark contract asks for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// defaultSeconds is the timed phase of a reported run; it equals
// run_seconds in BENCHMARK.json.
const defaultSeconds = 12

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: query_cold, query_warm, serve_open, build or all")
		seed     = flag.Int64("seed", 1, "seed of the document, the mix order and the Zipf draw")
		seconds  = flag.Float64("seconds", defaultSeconds, "length of the timed phase")
		trace    = flag.Int("trace", -1, "0: end-to-end pass, 1: traced per-layer pass, -1: both")
		repeats  = flag.Int("repeats", 1, "runs per workload and pass; -out records min/median/max over them")
		quick    = flag.Bool("quick", false, "tiny sizing for the self-test; never for reported numbers")
		out      = flag.String("out", "", "write every run's metrics to this JSON file")
		spans    = flag.String("spans", "", "write the traced pass's spans to this file (JSON lines)")
		workDir  = flag.String("workdir", filepath.Join(".bench_build", "work"), "where stores and input files are written, then removed")
		compare  = flag.Bool("compare", false, "compare two -out files: benchmark -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		worse, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	names := []string{*workload}
	if *workload == "all" {
		names = nil
		for _, s := range specs {
			names = append(names, s.name)
		}
	}
	passes := []bool{*trace == 1}
	if *trace < 0 {
		passes = []bool{false, true}
	}
	report := newReport(*seed, *seconds)
	var last *runResult
	failed := false
	for _, name := range names {
		for _, traced := range passes {
			for i := 0; i < *repeats; i++ {
				cfg := runConfig{Workload: name, Seed: *seed, Seconds: *seconds, Trace: traced, Quick: *quick, WorkDir: *workDir, Spans: *spans}
				res, err := run(cfg)
				if err != nil {
					fatal(fmt.Errorf("%s: %w", name, err))
				}
				printResult(res)
				report.add(res)
				failed = failed || res.Failed > 0
				last = res
			}
		}
	}
	if *out != "" {
		if err := report.write(*out); err != nil {
			fatal(err)
		}
	}
	if len(names) == 1 && len(passes) == 1 && *repeats == 1 {
		printContractLine(last)
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// printResult prints every metric of a run by name, with unit and sample
// count.
func printResult(r *runResult) {
	pass := "end-to-end"
	if r.Trace {
		pass = "per-layer (traced)"
	}
	fmt.Printf("== %s  %s  attempted=%d failed=%d\n", r.Workload, pass, r.Attempted, r.Failed)
	if r.FirstError != "" {
		fmt.Printf("   first failure: %s\n", r.FirstError)
	}
	for _, group := range []map[string]metric{r.Metrics, r.Info} {
		for _, name := range sortedKeys(group) {
			m := group[name]
			fmt.Printf("   %-34s %14.4f %-7s n=%d\n", name, m.Value, m.Unit, m.Samples)
		}
		if len(r.Info) > 0 && len(group) > 0 {
			fmt.Println("   --")
		}
	}
}

// printContractLine prints the one-line machine-readable result.
func printContractLine(r *runResult) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for name, m := range r.Metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// report is the -out file: the run's provenance and, per workload and
// metric, min/median/max over the repeats.
type report struct {
	Meta      reportMeta                 `json:"meta"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type reportMeta struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"git_revision"`
}

type workloadReport struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]*spread `json:"end_to_end"`
	PerLayer  map[string]*spread `json:"per_layer"`
	Info      map[string]*spread `json:"info"`
}

// spread summarizes one metric over the repeats of a run set.
type spread struct {
	Unit    string    `json:"unit"`
	Min     float64   `json:"min"`
	Median  float64   `json:"median"`
	Max     float64   `json:"max"`
	Samples int       `json:"samples"` // operations behind one value
	Values  []float64 `json:"values"`
}

func newReport(seed int64, seconds float64) *report {
	return &report{
		Meta: reportMeta{
			Seed: seed, Seconds: seconds,
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Revision: gitRevision(),
		},
		Workloads: map[string]*workloadReport{},
	}
}

// gitRevision reads the revision the go tool stamped into the binary;
// "unknown" outside a git checkout.
func gitRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func (rep *report) add(r *runResult) {
	w := rep.Workloads[r.Workload]
	if w == nil {
		w = &workloadReport{EndToEnd: map[string]*spread{}, PerLayer: map[string]*spread{}, Info: map[string]*spread{}}
		rep.Workloads[r.Workload] = w
	}
	w.Attempted += r.Attempted
	w.Failed += r.Failed
	into := w.EndToEnd
	if r.Trace {
		into = w.PerLayer
	}
	merge := func(dst map[string]*spread, src map[string]metric, prefix string) {
		for name, m := range src {
			s := dst[prefix+name]
			if s == nil {
				s = &spread{Unit: m.Unit, Samples: m.Samples}
				dst[prefix+name] = s
			}
			s.Values = append(s.Values, m.Value)
			sorted := append([]float64(nil), s.Values...)
			sort.Float64s(sorted)
			s.Min, s.Median, s.Max = sorted[0], medianOf(sorted), sorted[len(sorted)-1]
		}
	}
	merge(into, r.Metrics, "")
	prefix := ""
	if r.Trace {
		prefix = "traced."
	}
	merge(w.Info, r.Info, prefix)
}

func (rep *report) write(path string) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
