package main

import (
	"math"
	"sort"
	"time"

	blas "repro"
)

// metric is one reported number. Samples is the number of timed
// operations (or repetitions) the value was computed from.
type metric struct {
	Value   float64
	Unit    string
	Samples int
}

// durations collects per-operation latencies.
type durations []time.Duration

func (d durations) sorted() durations {
	s := append(durations(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// d, zero when d is empty.
func (d durations) percentile(p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := d.sorted()
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median averages the two middle samples of an even-sized set, so a
// small set (set-up repetitions, builds) does not jump by a whole sample.
func (d durations) median() time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := d.sorted()
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func (d durations) sum() time.Duration {
	var t time.Duration
	for _, v := range d {
		t += v
	}
	return t
}

func (d durations) mean() time.Duration {
	if len(d) == 0 {
		return 0
	}
	return d.sum() / time.Duration(len(d))
}

// latencies holds the latencies of verified operations, all of them and
// split by engine.
type latencies struct {
	all, rel, twig durations
}

func (l *latencies) add(v variant, took time.Duration) {
	l.all = append(l.all, took)
	if v.Engine == blas.EngineTwig {
		l.twig = append(l.twig, took)
	} else {
		l.rel = append(l.rel, took)
	}
}

// report emits the latency end-to-end metrics.
func (l *latencies) report(res *runResult) {
	n := len(l.all)
	res.set("lat_p50_ms", ms(l.all.percentile(50)), "ms", n)
	res.set("lat_p95_ms", ms(l.all.percentile(95)), "ms", n)
	res.set("rel_lat_p50_ms", ms(l.rel.percentile(50)), "ms", len(l.rel))
	res.set("twig_lat_p50_ms", ms(l.twig.percentile(50)), "ms", len(l.twig))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio is a/b, zero when b is zero (a layer the pass never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianOf is the float64 counterpart of durations.median.
func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
