package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	blas "repro"
	"repro/internal/dlabel"
	"repro/internal/enginetest"
	"repro/internal/server"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// expectation is the ground truth of one query: the number of result
// nodes and the FNV-64a hash of their start positions in document order.
type expectation struct {
	count int
	hash  uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// startHash accumulates start positions into an expectation.
type startHash expectation

func newStartHash() startHash { return startHash{hash: fnvOffset} }

func (h *startHash) add(start uint32) {
	for i := 0; i < 4; i++ {
		h.hash = (h.hash ^ uint64(byte(start>>(8*i)))) * fnvPrime
	}
	h.count++
}

// oracle answers every benchmark query with the naive xmltree evaluator
// (what enginetest.EvalStarts computes), labelling the tree once instead
// of once per query. It is filled during set-up and read-only afterwards.
type oracle struct {
	want map[string]expectation
}

// newOracle evaluates queries against tree on two goroutines (the
// sandbox's two cores); the evaluator only reads the tree.
func newOracle(tree *xmltree.Node, queries []string) (*oracle, error) {
	labels := enginetest.LabelTree(tree)
	o := &oracle{want: make(map[string]expectation, len(queries))}
	var mu sync.Mutex
	var firstErr error
	next := make(chan string)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range next {
				e, err := evaluate(tree, labels, q)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				o.want[q] = e
				mu.Unlock()
			}
		}()
	}
	for _, q := range queries {
		next <- q
	}
	close(next)
	wg.Wait()
	return o, firstErr
}

func evaluate(tree *xmltree.Node, labels map[*xmltree.Node]dlabel.Label, query string) (expectation, error) {
	q, err := xpath.Parse(query)
	if err != nil {
		return expectation{}, fmt.Errorf("oracle: %q: %w", query, err)
	}
	h := newStartHash()
	for _, n := range xpath.Eval(tree, q) {
		h.add(labels[n].Start)
	}
	return expectation(h), nil
}

func (o *oracle) verify(query string, got startHash) error {
	want, ok := o.want[query]
	if !ok {
		return fmt.Errorf("oracle: %q was not evaluated during set-up", query)
	}
	if want != expectation(got) {
		return fmt.Errorf("oracle: %q: got %d results (hash %x), want %d (hash %x)", query, got.count, got.hash, want.count, want.hash)
	}
	return nil
}

func (o *oracle) verifyMatches(query string, ms []blas.Match) error {
	h := newStartHash()
	for i := range ms {
		h.add(ms[i].Start)
	}
	return o.verify(query, h)
}

// verifyResponse checks a POST /query response body and returns the
// response without its matches. The load generator shares two cores with
// the server it measures, so the matches array is hashed by a byte
// scanner rather than decoded into structs.
func (o *oracle) verifyResponse(query string, body []byte) (*server.QueryResponse, error) {
	h, lo, hi, err := scanMatchStarts(body)
	if err != nil {
		return nil, fmt.Errorf("oracle: %q: %w", query, err)
	}
	rest := make([]byte, 0, lo+2+len(body)-hi)
	rest = append(append(append(rest, body[:lo]...), "[]"...), body[hi:]...)
	var resp server.QueryResponse
	if err := json.Unmarshal(rest, &resp); err != nil {
		return nil, fmt.Errorf("oracle: %q: %w", query, err)
	}
	if resp.Count != h.count {
		return nil, fmt.Errorf("oracle: %q: count field %d but %d matches", query, resp.Count, h.count)
	}
	return &resp, o.verify(query, h)
}

// scanMatchStarts walks a QueryResponse body, hashing the "start" member
// of every object in the top-level "matches" array, and returns the byte
// range [lo, hi) of that array. It tracks strings and nesting, so a
// value that happens to contain `"start":` is not mistaken for the key.
func scanMatchStarts(body []byte) (h startHash, lo, hi int, err error) {
	h = newStartHash()
	depth, inMatches := 0, false
	lo, hi = -1, -1
	for i := 0; i < len(body); i++ {
		switch c := body[i]; c {
		case '"':
			end := i + 1
			for end < len(body) && body[end] != '"' {
				if body[end] == '\\' {
					end++
				}
				end++
			}
			if end >= len(body) {
				return h, 0, 0, errors.New("unterminated string in response")
			}
			key := body[i+1 : end]
			i = end
			if i+1 >= len(body) || body[i+1] != ':' {
				continue
			}
			switch {
			case depth == 1 && string(key) == "matches":
				if i+2 >= len(body) || body[i+2] != '[' {
					return h, 0, 0, errors.New("matches is not an array")
				}
				inMatches, lo = true, i+2
			case depth == 3 && inMatches && string(key) == "start":
				var v uint32
				j := i + 2
				for ; j < len(body) && body[j] >= '0' && body[j] <= '9'; j++ {
					v = v*10 + uint32(body[j]-'0')
				}
				if j == i+2 {
					return h, 0, 0, errors.New("start is not a number")
				}
				h.add(v)
			}
		case '{', '[':
			depth++
		case '}', ']':
			depth--
			if inMatches && depth == 1 {
				inMatches, hi = false, i+1
			}
		}
	}
	if lo < 0 || hi < 0 || depth != 0 {
		return h, 0, 0, errors.New("response has no matches array")
	}
	return h, lo, hi, nil
}
