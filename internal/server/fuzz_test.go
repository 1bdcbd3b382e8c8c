package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	blas "repro"
)

// fuzzServer lazily builds one server shared by every fuzz execution —
// shredding a store per input would make the fuzzer useless.
var fuzzServer struct {
	once sync.Once
	srv  *Server
}

func getFuzzServer(f *testing.F) *Server {
	fuzzServer.once.Do(func() {
		st, err := blas.BuildFromString(testDoc, blas.Options{})
		if err != nil {
			f.Fatal(err)
		}
		fuzzServer.srv = New(st, Config{MaxInFlight: 4, ResultCacheEntries: 8, PlanCacheEntries: 8})
	})
	return fuzzServer.srv
}

// FuzzServerQuery throws arbitrary bytes at POST /query and checks the
// handler's contract under hostile input: it never panics, always
// answers with a status from the documented set, and every non-200
// carries a JSON {"error": ...} body.
func FuzzServerQuery(f *testing.F) {
	f.Add([]byte(`{"query":"/catalog/book/title"}`))
	f.Add([]byte(`{"query":"//book[author=\"Knuth\"]/title","engine":"twig"}`))
	f.Add([]byte(`{"query":"/catalog","translator":"pushup","trace":true}`))
	f.Add([]byte(`{"query":`))
	f.Add([]byte(`{"query":"///[["}`))
	f.Add([]byte(`{"query":"/a","bogus":true}`))
	f.Add([]byte(`{"query":"/a` + strings.Repeat("[b", 256) + strings.Repeat("]", 256) + `"}`))
	f.Add([]byte(`{"query":"/a[b='` + strings.Repeat(`"`, 64) + `']"}`))
	f.Add([]byte(`{"query":"` + strings.Repeat("/x", 4096) + `"}`))
	f.Add([]byte("\x00\xff garbage"))

	srv := getFuzzServer(f)
	allowed := map[int]bool{
		http.StatusOK:                    true,
		http.StatusBadRequest:            true,
		http.StatusRequestEntityTooLarge: true,
		http.StatusTooManyRequests:       true,
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)

		resp := rec.Result()
		defer resp.Body.Close()
		if !allowed[resp.StatusCode] {
			t.Fatalf("status %d outside the documented set for body %q", resp.StatusCode, body)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			var qr QueryResponse
			if err := json.Unmarshal(data, &qr); err != nil {
				t.Fatalf("200 with non-QueryResponse body %q: %v", data, err)
			}
			if qr.Matches == nil {
				t.Fatal("200 with null matches array")
			}
			return
		}
		var e errorResponse
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatalf("status %d with non-JSON body %q: %v", resp.StatusCode, data, err)
		}
		if e.Error == "" {
			t.Fatalf("status %d with empty error message", resp.StatusCode)
		}
	})
}
