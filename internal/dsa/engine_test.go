package dsa

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fragment"
	"repro/internal/graph"
)

func TestEngineNames(t *testing.T) {
	for _, e := range []Engine{EngineDijkstra, EngineSemiNaive, EngineBitset, EngineDense} {
		got, err := ParseEngine(e.String())
		if err != nil {
			t.Fatalf("ParseEngine(%q): %v", e.String(), err)
		}
		if got != e {
			t.Errorf("ParseEngine(%q) = %v, want %v", e.String(), got, e)
		}
	}
	if _, err := ParseEngine("warshall"); err == nil {
		t.Error("unknown engine name accepted")
	}
	if Engine(9).String() == "" {
		t.Error("unknown engine has empty name")
	}
}

// TestBitsetEngineRefusesCostQueries: the bitset engine carries
// presence markers, not costs, so the store's cost-only entry point
// (the pipelined walk) refuses it with a typed error, while the
// executor accepts it for connectivity under every leg executor.
func TestBitsetEngineRefusesCostQueries(t *testing.T) {
	st, _ := pathStore(t)
	if _, err := pipelined(st, 0, 8, EngineBitset); !errors.Is(err, ErrEngineMismatch) {
		t.Errorf("pipelined walk with the bitset engine: err = %v, want ErrEngineMismatch", err)
	}
	for _, s := range seams(st) {
		res, err := runPair(st, s.legs, 0, 8, EngineBitset)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if !res.Reachable {
			t.Errorf("%s: bitset connectivity 0→8 = false on the 0-…-8 path store", s.name)
		}
	}
}

// TestPropertyEnginesAgreeOnConnectivity: on shortest-path stores over
// random loosely connected fragmentations, all three engines give the
// same connectivity answer under every leg executor, which matches
// global reachability.
func TestPropertyEnginesAgreeOnConnectivity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st, g, err := buildLinearStore(seed, 2+rng.Intn(2), 8+rng.Intn(6), 2+rng.Intn(3))
		if err != nil {
			return false
		}
		nodes := g.Nodes()
		for q := 0; q < 4; q++ {
			src := nodes[rng.Intn(len(nodes))]
			dst := nodes[rng.Intn(len(nodes))]
			_, want := g.Reachable(src)[dst]
			if src == dst {
				want = true // Connected's same-node fast path
			}
			for _, s := range seams(st) {
				for _, engine := range []Engine{EngineDijkstra, EngineSemiNaive, EngineBitset, EngineDense} {
					res, err := runPair(st, s.legs, src, dst, engine)
					if err != nil {
						return false
					}
					if res.Reachable != want {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestDenseEngineAnswersCostQueries: the dense engine is cost-capable —
// every leg executor accepts it and agrees with the Dijkstra engine on
// both the multi-fragment chain and the same-fragment fast path.
func TestDenseEngineAnswersCostQueries(t *testing.T) {
	st, _ := pathStore(t)
	for _, q := range [][2]graph.NodeID{{0, 8}, {1, 2}, {8, 0}, {3, 6}} {
		want, err := query(st, q[0], q[1], EngineDijkstra)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range seams(st) {
			got, err := runPair(st, s.legs, q[0], q[1], EngineDense)
			if err != nil {
				t.Fatal(err)
			}
			if got.Reachable != want.Reachable || math.Abs(got.Cost-want.Cost) > 1e-9 {
				t.Errorf("%s query %v: dense (%v, %v), dijkstra (%v, %v)",
					s.name, q, got.Reachable, got.Cost, want.Reachable, want.Cost)
			}
		}
	}
}

// TestPropertyDenseEngineMatchesDijkstraCosts: on random loosely
// connected fragmentations, the dense engine's query cost equals the
// Dijkstra engine's for random node pairs (and the pipelined dense
// mode agrees too).
func TestPropertyDenseEngineMatchesDijkstraCosts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st, g, err := buildLinearStore(seed, 2+rng.Intn(2), 8+rng.Intn(6), 2+rng.Intn(3))
		if err != nil {
			return false
		}
		nodes := g.Nodes()
		for q := 0; q < 4; q++ {
			src := nodes[rng.Intn(len(nodes))]
			dst := nodes[rng.Intn(len(nodes))]
			want, err := query(st, src, dst, EngineDijkstra)
			if err != nil {
				return false
			}
			got, err := query(st, src, dst, EngineDense)
			if err != nil {
				return false
			}
			if got.Reachable != want.Reachable {
				return false
			}
			if want.Reachable && math.Abs(got.Cost-want.Cost) > 1e-9 {
				return false
			}
			pip, err := pipelined(st, src, dst, EngineDense)
			if err != nil {
				return false
			}
			if pip.Reachable != want.Reachable {
				return false
			}
			if want.Reachable && math.Abs(pip.Cost-want.Cost) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestQueryPipelinedEngineRefusals: pipelined evaluation needs a
// vector-seeded engine; the relational and bitset engines are refused.
func TestQueryPipelinedEngineRefusals(t *testing.T) {
	st, _ := pathStore(t)
	for _, e := range []Engine{EngineSemiNaive, EngineBitset} {
		if _, err := pipelined(st, 0, 8, e); err == nil {
			t.Errorf("pipelined accepted non-vector-seeded engine %v", e)
		}
	}
	res, err := pipelined(st, 0, 8, EngineDense)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reachable || res.Cost != 8 {
		t.Errorf("pipelined dense 0→8 = (%v, %v), want (true, 8)", res.Reachable, res.Cost)
	}
}

// TestDenseEngineNegativeWeightsErrorNotPanic: graph files may carry
// negative weights (graph.Read does not validate signs), and Dijkstra
// silently tolerates them — but the dense kernel cannot. It must
// surface an error like the semi-naive engine, not panic: the serving
// layer runs legs on worker goroutines, where a panic kills the
// daemon.
func TestDenseEngineNegativeWeightsErrorNotPanic(t *testing.T) {
	g := graph.New()
	for i := 0; i < 3; i++ {
		g.AddNode(graph.NodeID(i), graph.Coord{X: float64(i)})
	}
	e1 := graph.Edge{From: 0, To: 1, Weight: -2}
	e2 := graph.Edge{From: 1, To: 2, Weight: 1}
	g.AddEdge(e1)
	g.AddEdge(e2)
	fr, err := fragment.New(g, [][]graph.Edge{{e1, e2}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(fr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := query(st, 0, 2, EngineDense); err == nil {
		t.Error("dense query over negative weights returned no error")
	}
	if _, err := pipelined(st, 0, 2, EngineDense); err == nil {
		t.Error("pipelined dense query over negative weights returned no error")
	}
	if _, _, err := st.ExecuteLegFullCtx(context.Background(), 0, []graph.NodeID{0}, EngineDense); err == nil {
		t.Error("ExecuteLegFullCtx dense over negative weights returned no error")
	}
	// The semi-naive engine refuses the same input; dijkstra remains
	// callable (it silently assumes non-negative weights).
	if _, err := query(st, 0, 2, EngineSemiNaive); err == nil {
		t.Error("seminaive query over negative weights returned no error")
	}
}
