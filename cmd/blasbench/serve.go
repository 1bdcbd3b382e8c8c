package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"text/tabwriter"
	"time"

	blas "repro"
	"repro/internal/bench"
	"repro/internal/server"
)

// serveFigure measures the serving tier (not a paper figure): cold
// vs. warm query latency through the full blasd HTTP path — request
// decoding, plan cache, admission control, execution, JSON encoding —
// for every Fig. 10 query on both engines. "cold" purges the caches
// before each request, so every iteration pays parse + translate;
// "warm" repeats the same query against a populated plan cache. The
// delta is the per-request cost the plan cache eliminates. Results are
// recorded through the harness so -json emits BENCH_serve.json on the
// standard trajectory schema.
func serveFigure(w io.Writer, h *bench.Harness, factor int) error {
	repeats := h.Repeats
	if repeats < 1 {
		repeats = 1
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "serve: HTTP query latency, cold vs warm plan cache (factor %d, %d repeats)\n", factor, repeats)
	fmt.Fprintln(tw, "query\tengine\tcold\twarm\tsaved\tresults")

	for _, dataset := range blas.Datasets() {
		queries := queriesFor(dataset)
		if len(queries) == 0 {
			continue
		}
		if err := serveDataset(tw, h, dataset, factor, repeats, queries); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// queriesFor returns the Fig. 10 query names for one data set, in
// presentation order.
func queriesFor(dataset string) []string {
	var names []string
	for _, qn := range bench.QueryOrder(bench.Fig10Queries) {
		if ds, err := bench.DatasetOf(qn); err == nil && ds == dataset {
			names = append(names, qn)
		}
	}
	return names
}

func serveDataset(w io.Writer, h *bench.Harness, dataset string, factor, repeats int, queries []string) error {
	var doc strings.Builder
	if err := blas.GenerateDataset(&doc, dataset, blas.DatasetOptions{Seed: h.Seed, Factor: factor}); err != nil {
		return err
	}
	st, err := blas.BuildFromString(doc.String(), blas.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	srv := server.New(st, server.Config{})
	handler := srv.Handler()

	for _, qn := range queries {
		query := bench.Fig10Queries[qn]
		for _, engine := range []string{"relational", "twig"} {
			cold, coldResp, err := timeServe(handler, query, engine, repeats, true)
			if err != nil {
				return fmt.Errorf("serve: %s [%s] cold: %w", qn, engine, err)
			}
			// The final cold iteration left the plan cached; warm runs
			// re-execute against it (the result cache stays bypassed).
			warm, warmResp, err := timeServe(handler, query, engine, repeats, false)
			if err != nil {
				return fmt.Errorf("serve: %s [%s] warm: %w", qn, engine, err)
			}
			if !warmResp.PlanCached {
				return fmt.Errorf("serve: %s [%s]: warm run missed the plan cache", qn, engine)
			}
			for _, phase := range []struct {
				name    string
				elapsed time.Duration
				resp    *server.QueryResponse
			}{{"cold", cold, coldResp}, {"warm", warm, warmResp}} {
				h.Record(bench.Measurement{
					Query:      qn + "/" + phase.name,
					Dataset:    dataset,
					Factor:     factor,
					Translator: string(phase.resp.Stats.Translator),
					Engine:     engine,
					Elapsed:    phase.elapsed,
					Visited:    phase.resp.Stats.VisitedElements,
					PageMisses: phase.resp.Stats.PageMisses,
					Results:    phase.resp.Count,
					Joins:      phase.resp.Stats.Joins,
				})
			}
			fmt.Fprintf(w, "%s\t%s\t%v\t%v\t%v\t%d\n", qn, engine, cold, warm, cold-warm, coldResp.Count)
		}
	}
	return nil
}

// timeServe runs one query `repeats` times through the handler and
// returns the mean wall time and the last response. With purge set, the
// server's caches are dropped before every iteration so each request
// pays the full plan cost.
func timeServe(handler http.Handler, query, engine string, repeats int, purge bool) (time.Duration, *server.QueryResponse, error) {
	body, err := json.Marshal(server.QueryRequest{
		Query: query, Engine: engine, NoResultCache: true,
	})
	if err != nil {
		return 0, nil, err
	}
	var total time.Duration
	var last *server.QueryResponse
	for i := 0; i < repeats; i++ {
		if purge {
			if err := purgeCaches(handler); err != nil {
				return 0, nil, err
			}
		}
		begin := time.Now()
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		handler.ServeHTTP(rec, req)
		total += time.Since(begin)
		if rec.Code != http.StatusOK {
			return 0, nil, fmt.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		var qr server.QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
			return 0, nil, err
		}
		last = &qr
	}
	return total / time.Duration(repeats), last, nil
}

func purgeCaches(handler http.Handler) error {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodDelete, "/cache?scope=all", nil)
	handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("DELETE /cache: status %d", rec.Code)
	}
	if _, err := io.Copy(io.Discard, rec.Body); err != nil {
		return err
	}
	return nil
}
