package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/dsa"
	"repro/internal/fragment/linear"
	"repro/internal/gen"
)

// fuzzHandler is the shared 6×6 grid deployment FuzzV1Decode drives;
// built once, it serves every fuzz input.
var fuzzHandler struct {
	once sync.Once
	h    http.Handler
	err  error
}

// newFuzzHandler deploys a 6×6 grid in three linear fragments.
func newFuzzHandler() (http.Handler, error) {
	g, err := gen.Grid(gen.GridConfig{Width: 6, Height: 6, DiagonalProb: 0.15, Seed: 7})
	if err != nil {
		return nil, err
	}
	res, err := linear.Fragment(g, linear.Options{NumFragments: 3})
	if err != nil {
		return nil, err
	}
	st, err := dsa.Build(res.Fragmentation, dsa.Options{})
	if err != nil {
		return nil, err
	}
	srv, err := New(st, Config{CacheCapacity: 256})
	if err != nil {
		return nil, err
	}
	return srv.Handler(), nil
}

// FuzzV1Decode feeds arbitrary bodies to the two public /v1 decoders,
// POST /v1/query and POST /v1/batch. Whatever the bytes, the server
// must not panic and must answer either 200 or a non-5xx /v1 error
// envelope carrying a machine code.
func FuzzV1Decode(f *testing.F) {
	for _, seed := range []string{
		`{"sources":[0],"targets":[35],"mode":"cost"}`,
		`{"sources":[0,1],"targets":[35],"mode":"connectivity","engine":"bitset"}`,
		`{"sources":[0],"targets":[35],"mode":"pipelined","engine":"dense","limit":1}`,
		`{"sources":[0],"targets":[999]}`,
		`{"sources":[],"targets":[1]}`,
		`{"sources":[0],"targets":[1],"engine":"warp"}`,
		`{"requests":[{"sources":[0],"targets":[10]},{"sources":[0],"targets":[1],"engine":"nope"}]}`,
		`{"requests":[]}`,
		`{"sources":[-1],"targets":[1e99],"limit":-3}`,
		`not json`,
		``,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		if len(body) > 1<<10 {
			t.Skip("bodies are capped at 1 KiB")
		}
		fuzzHandler.once.Do(func() { fuzzHandler.h, fuzzHandler.err = newFuzzHandler() })
		if fuzzHandler.err != nil {
			t.Fatal(fuzzHandler.err)
		}
		for _, path := range []string{"/v1/query", "/v1/batch"} {
			rec := httptest.NewRecorder()
			fuzzHandler.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
			if rec.Code == http.StatusOK {
				continue
			}
			if rec.Code >= 500 {
				t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
			}
			var ve V1Error
			if err := json.Unmarshal(rec.Body.Bytes(), &ve); err != nil || ve.Code == "" {
				t.Fatalf("POST %s %q: status %d without a /v1 error envelope: %s", path, body, rec.Code, rec.Body)
			}
		}
	})
}
