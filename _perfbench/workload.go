package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/fragment"
	"repro/internal/graph"
)

// The graph every workload shares: the baseline 64×64 grid with
// diagonal shortcuts (seed 7), cut into 8 linear fragments — 4,096
// nodes and sites of about 512 nodes, so a single-pair query runs one
// to eight legs. The graph is fixed; --seed draws the query and write
// streams over it.
const (
	gridSide     = 64
	gridDiagProb = 0.15
	gridSeed     = 7
	gridFrags    = 8
)

// Serving settings shared by every workload.
const (
	// clients is the closed-loop concurrency: every caller of the API
	// waits for its reply before sending the next request.
	clients = 2
	// hotCache is the leg-cache capacity (entries) of the cached
	// workloads. The hot pool touches a few hundred leg keys, so it
	// fits and the hit ratio reaches 100% after the warm-up pass.
	hotCache = 4096
	// writeWeight is the weight of the edge a write inserts and deletes
	// again in one transaction: far above any path in the grid, so
	// answers never change and the oracle stays valid.
	writeWeight = 1e9
	// writePhaseOps is the number of write transactions the read-only
	// workloads send outside the read window, enough for a p90 with
	// ten samples beyond it. Writes report p90, not p95: grid-mixed's
	// window completes about 170 writes, too few for a p95.
	writePhaseOps = 100
	// tracedWrites is the number of write transactions the traced pass
	// replays on the read-only workloads.
	tracedWrites = 32
	// streamLen bounds the pre-generated op stream; clients wrap around
	// it if a run is long enough to exhaust it.
	streamLen = 1 << 15
)

// shape sizes the generated graph. The benchmark always runs fullShape;
// tests use a tiny one.
type shape struct {
	side, frags int
}

var fullShape = shape{side: gridSide, frags: gridFrags}

// workload is one traffic mix. See README.md for why each exists.
type workload struct {
	name string
	// cache is the leg-cache capacity in entries; 0 disables it.
	cache int
	// pool replays a fixed seeded pool of pairs (one per source and
	// target fragment) after a warm-up pass; otherwise every read is a
	// fresh pair.
	pool bool
	// writeShare is the share of window ops that are write transactions.
	writeShare float64
	// persistent serves a journaled store directory (tcq.OpenStore).
	persistent bool
	// nodes is the number of in-process cluster nodes.
	nodes int
}

var workloads = []workload{
	{name: "grid-hot", cache: hotCache, pool: true, nodes: 1},
	{name: "grid-cold", cache: 0, nodes: 1},
	{name: "grid-mixed", cache: hotCache, pool: true, writeShare: 0.15, persistent: true, nodes: 1},
	{name: "cluster-hot", cache: hotCache, pool: true, nodes: 3},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// op is one request of a stream: a single-pair cost query, or a write
// transaction that inserts and then deletes one heavy edge inside one
// fragment.
type op struct {
	write    bool
	src, dst int // read: the pair
	frag     int // write: the fragment whose edge set changes
	from, to int // write: the edge endpoints
	node     int // the deployment node the request is sent to
}

// stream is a workload's seeded input: the window's op sequence, the
// warm-up pool and the writes outside the window.
type stream struct {
	pool   []op // warm-up pass (empty for fresh-pair workloads)
	ops    []op // the timed window, replayed from the start
	writes []op // the writes of read-only workloads, outside the window
}

// newStream draws a workload's inputs from seed. Pairs are stratified
// by (source fragment, target fragment), so every seed exercises the
// same mix of chain lengths and only the nodes inside fragments vary.
func newStream(wl workload, fr *fragment.Fragmentation, seed int64) *stream {
	rng := rand.New(rand.NewSource(seed))
	nf := fr.NumFragments()
	interior := interiorNodes(fr)
	pair := func(fs, ft int) op {
		return op{src: pick(rng, interior[fs]), dst: pick(rng, interior[ft])}
	}
	combos := make([][2]int, 0, nf*nf)
	for fs := 0; fs < nf; fs++ {
		for ft := 0; ft < nf; ft++ {
			combos = append(combos, [2]int{fs, ft})
		}
	}
	edges := make([]op, nf)
	for f := range edges {
		edges[f] = writeEdge(rng, fr, f, interior[f])
	}

	s := &stream{}
	if wl.pool {
		for _, c := range combos {
			s.pool = append(s.pool, pair(c[0], c[1]))
		}
	}
	// Each round reads every (source, target) fragment combination
	// once, in a fresh order. On a cluster, round r sends combination k
	// to node (k+r) mod nodes, so every pair is coordinated by every
	// node equally often. Writes are spaced evenly, so every window of
	// the stream holds the same share of them.
	writes := 0
	for round := 0; len(s.ops) < streamLen; round++ {
		for _, k := range rng.Perm(len(combos)) {
			if float64(writes+1) <= wl.writeShare*float64(len(s.ops)+1) {
				s.ops = append(s.ops, edges[writes%nf])
				writes++
			}
			var o op
			if wl.pool {
				o = s.pool[k]
			} else {
				o = pair(combos[k][0], combos[k][1])
			}
			o.node = (k + round) % wl.nodes
			s.ops = append(s.ops, o)
		}
	}
	for i := range s.pool {
		s.pool[i].node = i % wl.nodes
	}
	for i := 0; i < writePhaseOps; i++ {
		s.writes = append(s.writes, edges[i%nf])
	}
	return s
}

// interiorNodes lists, per fragment, the nodes no other fragment
// shares, sorted so draws are reproducible.
func interiorNodes(fr *fragment.Fragmentation) [][]int {
	out := make([][]int, fr.NumFragments())
	for f, frag := range fr.Fragments() {
		for _, n := range frag.Nodes() {
			if len(fr.FragmentsOf(n)) == 1 {
				out[f] = append(out[f], int(n))
			}
		}
		sort.Ints(out[f])
	}
	return out
}

func pick(rng *rand.Rand, nodes []int) int { return nodes[rng.Intn(len(nodes))] }

// writeEdge draws the endpoints of fragment f's write edge: two
// distinct interior nodes not already joined by an edge.
func writeEdge(rng *rand.Rand, fr *fragment.Fragmentation, f int, nodes []int) op {
	base := fr.Base()
	for {
		a, b := pick(rng, nodes), pick(rng, nodes)
		if a != b && !base.HasEdge(graph.NodeID(a), graph.NodeID(b)) {
			return op{write: true, frag: f, from: a, to: b}
		}
	}
}
