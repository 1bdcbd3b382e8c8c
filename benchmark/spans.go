package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share OpID; Parent names the span that caused this one ("" for the
// operation's root span).
type span struct {
	OpID    int    `json:"op_id"`
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer records spans in memory from the benchmark's own call sites; the
// program under test is not instrumented. It is used by one goroutine.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its index for end.
func (t *tracer) start(op int, name, parent string) int {
	t.spans = append(t.spans, span{OpID: op, Name: name, Parent: parent, StartNs: time.Since(t.epoch).Nanoseconds()})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	s := &t.spans[i]
	s.EndNs = time.Since(t.epoch).Nanoseconds()
	return time.Duration(s.EndNs - s.StartNs)
}

// selfTimes returns, per span name, the summed self time: a span's
// duration minus the part of it its child spans cover. The stages of one
// operation run one after another on one goroutine, so children never
// overlap and the covered part is the sum of their durations.
func (t *tracer) selfTimes() map[string]time.Duration {
	type key struct {
		op   int
		name string
	}
	covered := map[key]int64{}
	for _, s := range t.spans {
		if s.Parent != "" {
			covered[key{s.OpID, s.Parent}] += s.EndNs - s.StartNs
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.EndNs - s.StartNs - covered[key{s.OpID, s.Name}])
	}
	return self
}

// coverage is the share of root-span time that child spans account for:
// when it falls, some stage of an operation is no longer measured.
func (t *tracer) coverage(root string) float64 {
	var parent, children int64
	for _, s := range t.spans {
		switch {
		case s.Name == root:
			parent += s.EndNs - s.StartNs
		case s.Parent == root:
			children += s.EndNs - s.StartNs
		}
	}
	return ratio(float64(children), float64(parent))
}

// writeTo writes the spans as JSON lines.
func (t *tracer) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
