package dsa

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fragment"
	"repro/internal/graph"
)

func TestInsertEdgeShortensPaths(t *testing.T) {
	st, _ := pathStore(t)
	before, err := query(st, 0, 8, EngineDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	if before.Cost != 8 {
		t.Fatalf("baseline cost = %v", before.Cost)
	}
	// A new express edge 1→7 inside... 1 is in fragment 0, 7 in
	// fragment 2; assign it to fragment 0 (its node set then includes 7
	// — a new disconnection set appears).
	st, stats, err := apply1(st, OpInsert, 0, graph.Edge{From: 1, To: 7, Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DijkstraRuns == 0 {
		t.Error("insert should have rebuilt complementary information")
	}
	after, err := query(st, 0, 8, EngineDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	if after.Cost != 3 { // 0→1 (1) + 1→7 (1) + 7→8 (1)
		t.Errorf("cost after insert = %v, want 3", after.Cost)
	}
	// The store must still agree with a fresh global search.
	if want := st.Fragmentation().Base().Distance(0, 8); math.Abs(after.Cost-want) > 1e-9 {
		t.Errorf("store %v vs global %v", after.Cost, want)
	}
}

func TestInsertEdgeValidation(t *testing.T) {
	st, _ := pathStore(t)
	if _, _, err := apply1(st, OpInsert, 99, graph.Edge{From: 0, To: 1, Weight: 1}); err == nil {
		t.Error("bad fragment accepted")
	}
	if _, _, err := apply1(st, OpInsert, 0, graph.Edge{From: 0, To: 999, Weight: 1}); err == nil {
		t.Error("unknown endpoint accepted")
	}
	if _, _, err := apply1(st, OpInsert, 0, graph.Edge{From: 0, To: 1, Weight: -2}); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestDeleteEdgeLengthensPaths(t *testing.T) {
	st, _ := pathStore(t)
	// Delete the forward edge 4→5 in the middle fragment: 0 can no
	// longer reach 8 (the reverse edge 5→4 remains but points the wrong
	// way).
	st, stats, err := apply1(st, OpDelete, 1, graph.Edge{From: 4, To: 5, Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	// pathStore's disconnection sets are single nodes, so the
	// complementary tables are vacuous and the incremental write path
	// proves no global search is needed — the answers below are the
	// real oracle.
	if stats.DijkstraRuns != 0 {
		t.Errorf("delete ran %d global searches on vacuous complementary tables, want 0", stats.DijkstraRuns)
	}
	res, err := query(st, 0, 8, EngineDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reachable {
		t.Errorf("0→8 should be unreachable after deleting 4→5, got cost %v", res.Cost)
	}
	// The reverse direction is unaffected.
	rev, err := query(st, 8, 0, EngineDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	if !rev.Reachable || rev.Cost != 8 {
		t.Errorf("8→0 = %+v, want cost 8", rev)
	}
}

func TestDeleteEdgeValidation(t *testing.T) {
	st, _ := pathStore(t)
	if _, _, err := apply1(st, OpDelete, 99, graph.Edge{From: 0, To: 1, Weight: 1}); err == nil {
		t.Error("bad fragment accepted")
	}
	if _, _, err := apply1(st, OpDelete, 1, graph.Edge{From: 0, To: 1, Weight: 1}); err == nil {
		t.Error("edge not in fragment accepted")
	}

	// Deleting the only edge of a fragment must be refused.
	g := graph.New()
	e1 := graph.Edge{From: 0, To: 1, Weight: 1}
	e2 := graph.Edge{From: 1, To: 2, Weight: 1}
	g.AddEdge(e1)
	g.AddEdge(e2)
	fr, err := fragment.New(g, [][]graph.Edge{{e1}, {e2}})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := Build(fr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := apply1(st2, OpDelete, 0, e1); err == nil {
		t.Error("emptying a fragment accepted")
	}
}

// TestPropertyUpdatesPreserveExactness: after a random series of
// single-op Apply inserts and deletes, the latest store still answers
// exactly like global Dijkstra on its base graph.
func TestPropertyUpdatesPreserveExactness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st, _, err := buildLinearStore(seed, 2, 8, 2)
		if err != nil {
			return false
		}
		for step := 0; step < 3; step++ {
			base := st.Fragmentation().Base()
			nodes := base.Nodes()
			if rng.Intn(2) == 0 {
				// Insert a random edge into a random fragment.
				frag := rng.Intn(st.Fragmentation().NumFragments())
				u := nodes[rng.Intn(len(nodes))]
				v := nodes[rng.Intn(len(nodes))]
				if u == v {
					continue
				}
				if st, _, err = apply1(st, OpInsert, frag, graph.Edge{From: u, To: v, Weight: 1 + rng.Float64()*5}); err != nil {
					return false
				}
			} else {
				// Delete a random edge (skip if it would empty the
				// fragment).
				frag := rng.Intn(st.Fragmentation().NumFragments())
				edges := st.Fragmentation().Fragment(frag).Edges
				if len(edges) < 2 {
					continue
				}
				if st, _, err = apply1(st, OpDelete, frag, edges[rng.Intn(len(edges))]); err != nil {
					return false
				}
			}
			// Spot-check exactness (only when still loosely connected;
			// inserts can create cycles in G').
			if !st.LooselyConnected() {
				continue
			}
			base = st.Fragmentation().Base()
			nodes = base.Nodes()
			src := nodes[rng.Intn(len(nodes))]
			dst := nodes[rng.Intn(len(nodes))]
			res, err := query(st, src, dst, EngineDijkstra)
			if err != nil {
				return false
			}
			want := base.Distance(src, dst)
			if res.Reachable != !math.IsInf(want, 1) {
				return false
			}
			if res.Reachable && math.Abs(res.Cost-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// apply1 applies a single-op batch copy-on-write and returns the next
// store generation.
func apply1(st *Store, kind OpKind, frag int, e graph.Edge) (*Store, BatchStats, error) {
	return st.Apply(context.Background(), []EdgeOp{{Kind: kind, Frag: frag, Edge: e}})
}
