package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/dsa"
	"repro/internal/fragment/linear"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/pkg/tcq"
)

// newGridServer builds a W×H grid store fragmented into frags linear
// fragments and deploys a server over it.
func newGridServer(t *testing.T, w, h, frags int, cfg Config) (*Server, *dsa.Store) {
	t.Helper()
	g, err := gen.Grid(gen.GridConfig{Width: w, Height: h, DiagonalProb: 0.15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := linear.Fragment(g, linear.Options{NumFragments: frags})
	if err != nil {
		t.Fatal(err)
	}
	st, err := dsa.Build(res.Fragmentation, dsa.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, st
}

// oracle is an independent store over the same fragmentation, used to
// answer queries through the uncached library path.
func newOracle(t *testing.T, st *dsa.Store) *dsa.Store {
	t.Helper()
	o, err := dsa.Build(st.Fragmentation(), dsa.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// libQuery answers one pair on st through the library's default leg
// executor — the uncached reference the server must agree with.
func libQuery(st *dsa.Store, src, dst graph.NodeID, engine dsa.Engine) (*dsa.Result, error) {
	plan, err := st.NewPlan(src, dst)
	if err != nil {
		return nil, err
	}
	res, _, err := st.Execute(context.Background(), plan, engine, st.LocalLegs())
	return res, err
}

// ask answers one pair through srv's facade with a forced engine — the
// public path onto the server's leg executor.
func ask(srv *Server, src, dst graph.NodeID, mode tcq.Mode, engine dsa.Engine) (*tcq.Result, error) {
	eng, err := tcq.ParseEngine(engine.String())
	if err != nil {
		return nil, err
	}
	return srv.Facade().Query(context.Background(), tcq.Request{
		Sources: []int{int(src)}, Targets: []int{int(dst)}, Mode: mode, Engine: eng,
	})
}

// TestServerMatchesLibrary is the serving-layer correctness property:
// the server's leg executor (pooled, cached) answers exactly what the
// library's default executor answers, for repeated (cache-hitting)
// random queries and every cost engine.
func TestServerMatchesLibrary(t *testing.T) {
	srv, st := newGridServer(t, 8, 8, 4, Config{CacheCapacity: 256})
	oracle := newOracle(t, st)
	rng := rand.New(rand.NewSource(3))
	for _, engine := range []dsa.Engine{dsa.EngineDijkstra, dsa.EngineSemiNaive, dsa.EngineDense} {
		for q := 0; q < 15; q++ {
			src := graph.NodeID(rng.Intn(64))
			dst := graph.NodeID(rng.Intn(64))
			want, err := libQuery(oracle, src, dst, engine)
			if err != nil {
				t.Fatal(err)
			}
			// Twice: the second answer comes from the leg cache.
			for pass := 0; pass < 2; pass++ {
				res, err := ask(srv, src, dst, tcq.ModeCost, engine)
				if err != nil {
					t.Fatalf("server query %d->%d pass %d: %v", src, dst, pass, err)
				}
				got := res.Answers[0]
				if got.Reachable != want.Reachable {
					t.Errorf("%v %d->%d pass %d: reachable %v, oracle %v",
						engine, src, dst, pass, got.Reachable, want.Reachable)
				}
				if want.Reachable && math.Abs(got.Cost-want.Cost) > 1e-9 {
					t.Errorf("%v %d->%d pass %d: cost %v, oracle %v",
						engine, src, dst, pass, got.Cost, want.Cost)
				}
			}
		}
	}
	cs := srv.Stats().Cache
	if cs.Hits == 0 {
		t.Error("no cache hits over repeated identical queries")
	}
}

// TestServerConnectedAllEngines checks the reachability path, including
// the connectivity-only bitset engine, against the graph's own
// reachability.
func TestServerConnectedAllEngines(t *testing.T) {
	srv, st := newGridServer(t, 6, 6, 3, Config{CacheCapacity: 256})
	base := st.Fragmentation().Base()
	rng := rand.New(rand.NewSource(5))
	for _, engine := range []dsa.Engine{dsa.EngineDijkstra, dsa.EngineSemiNaive, dsa.EngineBitset, dsa.EngineDense} {
		for q := 0; q < 10; q++ {
			src := graph.NodeID(rng.Intn(36))
			dst := graph.NodeID(rng.Intn(36))
			_, want := base.Reachable(src)[dst]
			if src == dst {
				want = true
			}
			res, err := ask(srv, src, dst, tcq.ModeConnectivity, engine)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Answers[0].Reachable; got != want {
				t.Errorf("%v connected(%d, %d) = %v, want %v", engine, src, dst, got, want)
			}
		}
	}
}

// TestServerUpdateInvalidatesCache inserts a shortcut edge that changes
// a cached answer and checks the served cost moves to the new optimum
// (a stale cache would keep answering the old cost).
func TestServerUpdateInvalidatesCache(t *testing.T) {
	srv, _ := newGridServer(t, 8, 8, 4, Config{CacheCapacity: 256})
	src, dst := graph.NodeID(0), graph.NodeID(63)
	cost := func() float64 {
		t.Helper()
		res, err := ask(srv, src, dst, tcq.ModeCost, dsa.EngineDijkstra)
		if err != nil {
			t.Fatal(err)
		}
		return res.Answers[0].Cost
	}
	before := cost()
	// Warm the cache with a second identical query.
	if res, err := ask(srv, src, dst, tcq.ModeCost, dsa.EngineDijkstra); err != nil || res.CacheHits == 0 {
		t.Fatalf("warm query: res=%+v err=%v", res, err)
	}
	// A directed 0→63 shortcut far cheaper than any grid path.
	if _, err := srv.Facade().InsertEdge(0, int(src), int(dst), 0.25); err != nil {
		t.Fatal(err)
	}
	if after := cost(); math.Abs(after-0.25) > 1e-9 {
		t.Errorf("cost after shortcut insert = %v, want 0.25 (before: %v)", after, before)
	}
	// And deleting restores the original answer.
	if _, err := srv.Facade().DeleteEdge(0, int(src), int(dst), 0.25); err != nil {
		t.Fatal(err)
	}
	if restored := cost(); math.Abs(restored-before) > 1e-9 {
		t.Errorf("cost after delete = %v, want %v", restored, before)
	}
	st := srv.Stats()
	if st.Epoch != 2 {
		t.Errorf("epoch = %d, want 2", st.Epoch)
	}
	if st.Cache.Sweeps != 2 {
		t.Errorf("cache invalidation sweeps = %d, want 2", st.Cache.Sweeps)
	}
	if st.Cache.Invalidated == 0 {
		t.Error("inserting a shortcut into a cached fragment must invalidate its entries eagerly")
	}
}

func TestServerRefusals(t *testing.T) {
	srv, _ := newGridServer(t, 4, 4, 2, Config{CacheCapacity: 16})
	if _, err := ask(srv, 0, 15, tcq.ModeCost, dsa.EngineBitset); !errors.Is(err, tcq.ErrEngineMismatch) {
		t.Errorf("bitset cost query: err = %v, want ErrEngineMismatch", err)
	}
	if _, err := ask(srv, 0, 15, tcq.ModeCost, dsa.Engine(9)); !errors.Is(err, tcq.ErrUnknownEngine) {
		t.Errorf("unknown engine: err = %v, want ErrUnknownEngine", err)
	}
	// The runner seam itself refuses an unknown engine too.
	if _, _, err := srv.RunPair(context.Background(), srv.Dataset().Snapshot(), 0, 15, dsa.Engine(9), tcq.ModeCost); !errors.Is(err, dsa.ErrUnknownEngine) {
		t.Errorf("RunPair with unknown engine: err = %v, want ErrUnknownEngine", err)
	}
	if _, err := ask(srv, 0, 4096, tcq.ModeCost, dsa.EngineDijkstra); !errors.Is(err, tcq.ErrUnknownNode) {
		t.Errorf("unknown node: err = %v, want ErrUnknownNode", err)
	}
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil store accepted")
	}
}

// TestReachabilityStoreRefusesCostQueries mirrors the library contract
// through the serving layer.
func TestReachabilityStoreRefusesCostQueries(t *testing.T) {
	g, err := gen.Grid(gen.GridConfig{Width: 4, Height: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := linear.Fragment(g, linear.Options{NumFragments: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := dsa.Build(res.Fragmentation, dsa.Options{Problem: dsa.ProblemReachability})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(st, Config{CacheCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := ask(srv, 0, 15, tcq.ModeCost, dsa.EngineDijkstra); !errors.Is(err, tcq.ErrProblemMismatch) {
		t.Errorf("reachability store answered a cost query: err = %v", err)
	}
	got, err := ask(srv, 0, 15, tcq.ModeConnectivity, dsa.EngineBitset)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Answers[0].Reachable {
		t.Error("grid corners not connected")
	}
}

// TestHTTPEndpoints drives the JSON API end to end over httptest.
func TestHTTPEndpoints(t *testing.T) {
	srv, st := newGridServer(t, 6, 6, 3, Config{CacheCapacity: 256})
	oracle := newOracle(t, st)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var health map[string]string
	if err := getJSON(ts.URL+"/healthz", &health); err != nil {
		t.Fatal(err)
	}

	want, err := libQuery(oracle, 0, 35, dsa.EngineDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	pair := func(mode, engine string) V1Request {
		return V1Request{Sources: []int{0}, Targets: []int{35}, Mode: mode, Engine: engine}
	}
	// costOf posts a single-pair /v1/query and checks the answered
	// engine (when wantEngine is set) and cost.
	costOf := func(req V1Request, wantEngine string, wantCost float64) {
		t.Helper()
		var vr V1QueryResponse
		if status := postV1(t, ts.URL+"/v1/query", req, &vr); status != http.StatusOK {
			t.Fatalf("POST /v1/query %+v: status %d", req, status)
		}
		a := vr.Answers[0]
		if !a.Reachable || a.Cost == nil || math.Abs(*a.Cost-wantCost) > 1e-9 {
			t.Errorf("/v1/query %+v = %+v, want cost %v", req, a, wantCost)
		}
		if wantEngine != "" && vr.Explain.Engine != wantEngine {
			t.Errorf("/v1/query %+v: engine %q, want %q", req, vr.Explain.Engine, wantEngine)
		}
	}
	costOf(pair("cost", ""), "", want.Cost)

	var cr V1QueryResponse
	if status := postV1(t, ts.URL+"/v1/query", pair("connectivity", "bitset"), &cr); status != http.StatusOK || !cr.Answers[0].Reachable {
		t.Errorf("corners not connected over HTTP: status %d, %+v", status, cr)
	}

	var sr Stats
	if err := getJSON(ts.URL+"/stats", &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Nodes != 36 || sr.Sites != 3 {
		t.Errorf("stats nodes=%d sites=%d, want 36 and 3", sr.Nodes, sr.Sites)
	}
	if sr.Queries == 0 || sr.ConnectedQueries == 0 {
		t.Errorf("stats did not count queries: %+v", sr)
	}

	// Client errors carry typed codes.
	refused := func(req V1Request, wantStatus int, wantCode string) {
		t.Helper()
		var ve V1Error
		if status := postV1(t, ts.URL+"/v1/query", req, &ve); status != wantStatus || ve.Code != wantCode {
			t.Errorf("/v1/query %+v: status %d code %q, want %d %q", req, status, ve.Code, wantStatus, wantCode)
		}
	}
	refused(pair("cost", "warp"), http.StatusBadRequest, "unknown_engine")
	refused(pair("cost", "bitset"), http.StatusBadRequest, "engine_mismatch")
	refused(pair("sideways", ""), http.StatusBadRequest, "unknown_mode")
	refused(V1Request{Sources: []int{0}, Targets: []int{999}, Mode: "cost"}, http.StatusNotFound, "unknown_node")

	// Pipelined mode: the planner picks a vector-seeded engine, the
	// dense kernel is accepted, and engines without a seeded primitive
	// are refused rather than silently ignored.
	costOf(pair("pipelined", ""), "", want.Cost)
	costOf(pair("pipelined", "dense"), "dense", want.Cost)
	// A pooled dense cost query shares the leg cache like any engine.
	costOf(pair("cost", "dense"), "dense", want.Cost)
	refused(pair("pipelined", "seminaive"), http.StatusBadRequest, "engine_mismatch")
	refused(pair("pipelined", "bitset"), http.StatusBadRequest, "engine_mismatch")

	// Update round trip: insert then delete a shortcut.
	update := func(body string, wantStatus int) V1UpdateResponse {
		t.Helper()
		var ur V1UpdateResponse
		resp, err := http.Post(ts.URL+"/v1/update", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("POST /v1/update %s: status %d, want %d", body, resp.StatusCode, wantStatus)
		}
		if wantStatus == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
				t.Fatal(err)
			}
		}
		return ur
	}
	if ur := update(`{"ops":[{"op":"insert","fragment":0,"from":0,"to":35,"weight":0.5}]}`, http.StatusOK); ur.Epoch != 1 {
		t.Errorf("epoch after insert = %d, want 1", ur.Epoch)
	}
	costOf(pair("cost", ""), "", 0.5)
	update(`{"ops":[{"op":"delete","fragment":0,"from":0,"to":35,"weight":0.5}]}`, http.StatusOK)
	update(`{"ops":[{"op":"teleport","fragment":0,"from":0,"to":1}]}`, http.StatusBadRequest)
	update(`not json`, http.StatusBadRequest)
}

// getJSON decodes a 200 GET response body into out.
func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// TestRunLoadAgainstServer exercises the load driver end to end: a
// repeated random workload must produce zero errors and mismatches and
// a warm second pass.
func TestRunLoadAgainstServer(t *testing.T) {
	srv, _ := newGridServer(t, 6, 6, 3, Config{CacheCapacity: 512})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	rep, err := RunLoad(LoadConfig{
		BaseURL:         ts.URL,
		Requests:        40,
		Parallel:        4,
		Nodes:           36,
		Seed:            11,
		Repeat:          2,
		ExpectReachable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Mismatches != 0 {
		t.Fatalf("load run: %+v", rep)
	}
	if rep.Requests != 80 {
		t.Errorf("requests = %d, want 80", rep.Requests)
	}
	if rep.HitRate == 0 {
		t.Error("repeated workload produced no cache hits")
	}
	if rep.P50 == 0 || rep.Max < rep.P50 {
		t.Errorf("implausible percentiles: %+v", rep)
	}
}
