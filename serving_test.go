// Serving-tier integration tests: the HTTP server must return exactly
// what direct Store.Query returns on the paper corpus, for both engines
// — and the plan cache must make warm queries pay
// zero planning time. External test package: internal/server imports
// repro, so these tests must sit outside package blas.
package blas_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	blas "repro"
	"repro/internal/bench"
	"repro/internal/server"
)

func buildDatasetStore(tb testing.TB, dataset string) *blas.Store {
	tb.Helper()
	var doc strings.Builder
	if err := blas.GenerateDataset(&doc, dataset, blas.DatasetOptions{Seed: 1, Factor: 1}); err != nil {
		tb.Fatal(err)
	}
	st, err := blas.BuildFromString(doc.String(), blas.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	return st
}

func serverQuery(tb testing.TB, url string, req server.QueryRequest) *server.QueryResponse {
	tb.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("POST /query %q: status %d: %s", req.Query, resp.StatusCode, data)
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		tb.Fatal(err)
	}
	return &qr
}

// TestServerMatchesDirectOnCorpus serves each paper data set over HTTP
// and checks every Fig. 10 query returns matches byte-identical to a
// direct Store.Query — both engines, sequential and parallel. This is
// the serving analogue of TestPaperQueriesEndToEnd: it pins down the
// whole HTTP round trip (request decoding, cache layers, admission,
// JSON encoding) as result-preserving.
func TestServerMatchesDirectOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three paper-scale stores")
	}
	queriesByDataset := map[string][]string{}
	for qn, q := range bench.Fig10Queries {
		ds, err := bench.DatasetOf(qn)
		if err != nil {
			t.Fatal(err)
		}
		queriesByDataset[ds] = append(queriesByDataset[ds], q)
	}
	for _, ds := range blas.Datasets() {
		t.Run(ds, func(t *testing.T) {
			st := buildDatasetStore(t, ds)
			srv := server.New(st, server.Config{})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			for _, query := range queriesByDataset[ds] {
				for _, engine := range []blas.Engine{blas.EngineRelational, blas.EngineTwig} {
					want, err := st.Query(query, blas.QueryOptions{Engine: engine})
					if err != nil {
						t.Fatalf("%s [%s] direct: %v", query, engine, err)
					}
					qr := serverQuery(t, ts.URL, server.QueryRequest{
						Query: query, Engine: string(engine), NoResultCache: true,
					})
					if qr.Count != len(want.Matches) || !reflect.DeepEqual(qr.Matches, want.Matches) {
						t.Errorf("%s [%s]: server returned %d matches, direct query %d — results must be identical",
							query, engine, qr.Count, len(want.Matches))
					}
				}
				// Warm path: the plan is now cached; a repeat execution must
				// pay zero planning time end to end.
				warm := serverQuery(t, ts.URL, server.QueryRequest{Query: query, NoResultCache: true})
				if !warm.PlanCached || warm.PlanNs != 0 || warm.Stats.PlanElapsed != 0 {
					t.Errorf("%s: warm query paid planning time (plan_cached=%v plan_ns=%d plan_elapsed=%v)",
						query, warm.PlanCached, warm.PlanNs, warm.Stats.PlanElapsed)
				}
			}
			m := srv.Metrics()
			if m.PlanCache.Hits == 0 {
				t.Error("corpus sweep produced no plan-cache hits")
			}
		})
	}
}

// BenchmarkServerPlanCache contrasts the cold plan path (every request
// parses and translates) with the warm one (plan served from the cache)
// over the full HTTP round trip. The delta between the two sub-benchmarks
// is the per-request planning cost the cache eliminates.
func BenchmarkServerPlanCache(b *testing.B) {
	st := buildDatasetStore(b, "shakespeare")
	srv := server.New(st, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const query = `/PLAYS/PLAY/ACT/SCENE[TITLE="SCENE III. A public place."]//LINE`
	body, _ := json.Marshal(server.QueryRequest{Query: query, NoResultCache: true})

	post := func(b *testing.B) {
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	purgePlans := func(b *testing.B) {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/cache?scope=all", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			purgePlans(b)
			post(b)
		}
	})
	b.Run("warm", func(b *testing.B) {
		post(b) // install the plan
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b)
		}
		if hits := srv.Metrics().PlanCache.Hits; hits < uint64(b.N) {
			b.Fatalf("warm loop hit the plan cache %d times, want >= %d", hits, b.N)
		}
	})
}
