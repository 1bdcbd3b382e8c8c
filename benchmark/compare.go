package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// manifest is what the benchmark reads of BENCHMARK.json.
type manifest struct {
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWork   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints, per workload and end-to-end metric, both files'
// medians, the relative change from A to B and the metric's bound, and
// reports whether any metric got worse by more than its bound. A metric
// that did not is "unresolved" rather than "unchanged" when either
// file's own spread over its repeats is wider than the bound: the runs
// cannot tell a change of that size from noise.
func compareFiles(w io.Writer, manifestPath, pathA, pathB string) (worse bool, err error) {
	man, err := readManifest(manifestPath)
	if err != nil {
		return false, err
	}
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		if b.Workloads[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-12s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		for _, m := range man.EndToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if sa == nil || sb == nil {
				continue
			}
			bound := 0.0
			if m.Bound != nil {
				bound = *m.Bound
			}
			change := ratio(sb.Median-sa.Median, sa.Median)
			worsening := change
			if m.Better == "higher" {
				worsening = -change
			}
			verdict := "unchanged"
			switch {
			case worsening > bound:
				verdict, worse = "WORSE", true
			case sa.relSpread() > bound || sb.relSpread() > bound:
				verdict = "unresolved"
			case worsening < -bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-12s %-26s %14.4f %14.4f %+8.2f%% %6.0f%%  %s\n", name, m.Name, sa.Median, sb.Median, 100*change, 100*bound, verdict)
		}
	}
	return worse, nil
}

// relSpread is (max - min) / median over a file's repeats.
func (s *spread) relSpread() float64 { return ratio(s.Max-s.Min, s.Median) }
