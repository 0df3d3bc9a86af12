// Package gen generates the random test graphs of the ICDE'93 paper's
// §4.1: nodes with coordinates spread evenly over an interval, and
// edges drawn with the distance-decaying probability function
//
//	P(p, q) = (c1/n²) · e^(−c2·d(p,q))
//
// where d is the Euclidean distance between the node coordinates, c1
// controls the number of edges (the connectivity) and c2 the
// probability of long edges.
//
// Two graph families are provided, matching §4.2: transportation graphs
// (a user-specified number of dense clusters, loosely interconnected by
// a user-specified number of edges — the paper's Fig. 3 structure), and
// general graphs (a single cluster with no superimposed structure).
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// Config parameterises the generation of one cluster (or one general
// graph).
type Config struct {
	// Nodes is the number of nodes to generate.
	Nodes int
	// C1 scales the edge probability and thereby the connectivity
	// ("by changing c1 we could influence the number of edges
	// generated").
	C1 float64
	// C2 is the distance-decay exponent ("by changing c2 we could
	// influence the probability of generating edges between nodes that
	// are far apart").
	C2 float64
	// Extent is the side length of the square over which coordinates
	// are spread evenly. Zero selects DefaultExtent.
	Extent float64
	// UnitWeights makes every edge cost 1; otherwise the cost is the
	// Euclidean distance between the endpoints, as natural for the
	// paper's railway examples.
	UnitWeights bool
	// EnsureConnected adds a minimal set of extra edges joining the
	// connected components (each by the closest node pair), so that
	// path queries have answers. The paper's experiments only measure
	// fragmentation characteristics, but the disconnection-set
	// pipeline needs connected inputs.
	EnsureConnected bool
	// Seed seeds the deterministic random stream.
	Seed int64
}

// DefaultExtent is the coordinate interval used when Config.Extent is
// zero.
const DefaultExtent = 100.0

// DefaultC2 is the distance-decay exponent of the default configs; at
// this value E[e^(−c2·d)] over uniform point pairs in the default
// extent is ≈ 0.166 (measured), which DefaultsWithDegree uses to
// translate a target average degree into the paper's c1 parameter.
const DefaultC2 = 0.045

// decayExpectation is E[e^(−DefaultC2·d(p,q))] for p, q uniform in the
// default 100-square (Monte-Carlo estimate).
const decayExpectation = 0.166

// DefaultsWithDegree returns a Config whose expected average undirected
// degree is approximately degree. Since P(p,q) = (c1/n²)·e^(−c2·d), the
// expected number of undirected edges is ≈ (c1/2)·E[e^(−c2·d)]
// independent of n, so c1 must scale linearly with n·degree.
//
// The paper's experiments use graphs with average degrees ≈ 4.1
// (Table 1: 4×25 nodes, 429 edges), ≈ 5.3 (Table 2: 4×150 nodes, 3167
// edges) and ≈ 2.8 (Table 3: 100 nodes, 279.5 edges); the harness
// passes those targets here.
func DefaultsWithDegree(n int, degree float64, seed int64) Config {
	return Config{
		Nodes:           n,
		C1:              degree * float64(n) / decayExpectation,
		C2:              DefaultC2,
		Extent:          DefaultExtent,
		EnsureConnected: true,
		Seed:            seed,
	}
}

// Defaults returns a Config in the regime of the paper's Table 1
// cluster graphs (average undirected degree ≈ 4.2).
func Defaults(n int, seed int64) Config {
	return DefaultsWithDegree(n, 4.2, seed)
}

// validate applies defaults and rejects nonsensical parameters.
func (c *Config) validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("gen: Nodes must be positive, got %d", c.Nodes)
	}
	if c.Extent == 0 {
		c.Extent = DefaultExtent
	}
	if c.Extent < 0 {
		return fmt.Errorf("gen: Extent must be positive, got %g", c.Extent)
	}
	if c.C1 < 0 || c.C2 < 0 {
		return fmt.Errorf("gen: C1 and C2 must be non-negative, got %g, %g", c.C1, c.C2)
	}
	return nil
}

// EdgeProbability evaluates the paper's probability function for nodes
// at distance d in a graph of n nodes, clamped to [0, 1].
func EdgeProbability(c1, c2 float64, n int, d float64) float64 {
	p := c1 / float64(n*n) * math.Exp(-c2*d)
	if p > 1 {
		return 1
	}
	if p < 0 {
		return 0
	}
	return p
}

// General generates a general graph (§4.2.2): coordinates spread evenly
// over the extent, symmetric edges drawn with P(p,q). Node IDs are
// 0..Nodes-1.
func General(cfg Config) (*graph.Graph, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := graph.New()
	placeNodes(g, rng, 0, cfg.Nodes, 0, 0, cfg.Extent)
	connectCluster(g, rng, 0, cfg.Nodes, cfg)
	if cfg.EnsureConnected {
		connectComponents(g, cfg.UnitWeights)
	}
	return g, nil
}

// placeNodes adds count nodes with IDs starting at firstID, coordinates
// uniform over the square [ox, ox+extent) × [oy, oy+extent).
func placeNodes(g *graph.Graph, rng *rand.Rand, firstID, count int, ox, oy, extent float64) {
	for i := 0; i < count; i++ {
		g.AddNode(graph.NodeID(firstID+i), graph.Coord{
			X: ox + rng.Float64()*extent,
			Y: oy + rng.Float64()*extent,
		})
	}
}

// connectCluster draws symmetric edges among the nodes
// firstID..firstID+count-1 with the probability function.
func connectCluster(g *graph.Graph, rng *rand.Rand, firstID, count int, cfg Config) {
	for i := 0; i < count; i++ {
		for j := i + 1; j < count; j++ {
			u := graph.NodeID(firstID + i)
			v := graph.NodeID(firstID + j)
			d := g.EuclideanDistance(u, v)
			if rng.Float64() < EdgeProbability(cfg.C1, cfg.C2, count, d) {
				g.AddBoth(graph.Edge{From: u, To: v, Weight: edgeWeight(d, cfg.UnitWeights)})
			}
		}
	}
}

// edgeWeight returns the cost of an edge spanning distance d.
func edgeWeight(d float64, unit bool) float64 {
	if unit || d == 0 {
		return 1
	}
	return d
}

// connectComponents links the weakly connected components of g into one,
// joining each next component to the growing one by the closest node
// pair.
func connectComponents(g *graph.Graph, unitWeights bool) {
	for {
		comps := g.ConnectedComponents()
		if len(comps) <= 1 {
			return
		}
		// Join the second component to the first by the closest pair.
		bestD := math.Inf(1)
		var bu, bv graph.NodeID
		for _, u := range comps[0] {
			for _, v := range comps[1] {
				if d := g.EuclideanDistance(u, v); d < bestD {
					bestD, bu, bv = d, u, v
				}
			}
		}
		g.AddBoth(graph.Edge{From: bu, To: bv, Weight: edgeWeight(bestD, unitWeights)})
	}
}

// ClusterLink specifies that clusters A and B of a transportation graph
// are connected by Edges symmetric connections ("we were able to
// specify which fragments were connected to each other and by how many
// edges", §4.1).
type ClusterLink struct {
	A, B  int
	Edges int
}

// TransportConfig parameterises transportation-graph generation: a
// number of clusters, each generated per the embedded cluster Config,
// laid out on a grid and interconnected per Links.
type TransportConfig struct {
	// Clusters is the number of clusters.
	Clusters int
	// Cluster configures each cluster; Cluster.Nodes is the nodes per
	// cluster and Cluster.Seed the base seed (cluster i uses Seed+i).
	Cluster Config
	// Links lists the inter-cluster connections. Nil selects
	// DefaultLinks(Clusters).
	Links []ClusterLink
	// Gap is the empty margin between cluster squares, as a fraction of
	// the cluster extent. Zero selects 0.5.
	Gap float64
}

// DefaultLinks returns the Fig. 3-style linkage for f clusters: a cycle
// of the grid neighbours with alternating 2 and 3 connecting edges
// (averaging 2.25–2.5, close to the paper's reported 2.25).
func DefaultLinks(f int) []ClusterLink {
	if f <= 1 {
		return nil
	}
	links := make([]ClusterLink, 0, f)
	for i := 0; i < f; i++ {
		e := 2
		if i%4 == 3 {
			e = 3
		}
		links = append(links, ClusterLink{A: i, B: (i + 1) % f, Edges: e})
	}
	if f == 2 {
		// A 2-cycle would duplicate the pair; keep a single link.
		links = links[:1]
	}
	return links
}

// Transportation generates a transportation graph (Fig. 3): Clusters
// dense clusters on a grid, loosely interconnected. Cluster i owns node
// IDs [i*Nodes, (i+1)*Nodes). Inter-cluster links connect the
// geometrically closest node pairs of the two clusters, emulating
// border cities.
func Transportation(cfg TransportConfig) (*graph.Graph, error) {
	if cfg.Clusters <= 0 {
		return nil, fmt.Errorf("gen: Clusters must be positive, got %d", cfg.Clusters)
	}
	cc := cfg.Cluster
	if err := cc.validate(); err != nil {
		return nil, err
	}
	if cfg.Gap == 0 {
		cfg.Gap = 0.5
	}
	if cfg.Gap < 0 {
		return nil, fmt.Errorf("gen: Gap must be non-negative, got %g", cfg.Gap)
	}
	links := cfg.Links
	if links == nil {
		links = DefaultLinks(cfg.Clusters)
	}
	for _, l := range links {
		if l.A < 0 || l.A >= cfg.Clusters || l.B < 0 || l.B >= cfg.Clusters || l.A == l.B {
			return nil, fmt.Errorf("gen: link %v references invalid clusters (have %d)", l, cfg.Clusters)
		}
		if l.Edges <= 0 {
			return nil, fmt.Errorf("gen: link %v must add at least one edge", l)
		}
	}

	g := graph.New()
	side := int(math.Ceil(math.Sqrt(float64(cfg.Clusters))))
	pitch := cc.Extent * (1 + cfg.Gap)
	for i := 0; i < cfg.Clusters; i++ {
		ox := float64(i%side) * pitch
		oy := float64(i/side) * pitch
		rng := rand.New(rand.NewSource(cc.Seed + int64(i)))
		first := i * cc.Nodes
		placeNodes(g, rng, first, cc.Nodes, ox, oy, cc.Extent)
		connectCluster(g, rng, first, cc.Nodes, cc)
		if cc.EnsureConnected {
			connectClusterComponents(g, i, cc)
		}
	}
	for _, l := range links {
		if err := linkClusters(g, l, cc); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// clusterNodes returns the node IDs of cluster i.
func clusterNodes(i, perCluster int) []graph.NodeID {
	ids := make([]graph.NodeID, perCluster)
	for k := range ids {
		ids[k] = graph.NodeID(i*perCluster + k)
	}
	return ids
}

// connectClusterComponents restricts connectComponents to one cluster's
// node range so that EnsureConnected never adds inter-cluster edges.
func connectClusterComponents(g *graph.Graph, cluster int, cc Config) {
	ids := clusterNodes(cluster, cc.Nodes)
	inCluster := make(map[graph.NodeID]bool, len(ids))
	for _, id := range ids {
		inCluster[id] = true
	}
	for {
		// Components of the induced subgraph, computed via undirected BFS
		// constrained to the cluster.
		seen := make(map[graph.NodeID]bool)
		var comps [][]graph.NodeID
		for _, start := range ids {
			if seen[start] {
				continue
			}
			var comp []graph.NodeID
			stack := []graph.NodeID{start}
			seen[start] = true
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				comp = append(comp, u)
				for _, n := range g.Neighbors(u) {
					if inCluster[n] && !seen[n] {
						seen[n] = true
						stack = append(stack, n)
					}
				}
			}
			comps = append(comps, comp)
		}
		if len(comps) <= 1 {
			return
		}
		bestD := math.Inf(1)
		var bu, bv graph.NodeID
		for _, u := range comps[0] {
			for _, v := range comps[1] {
				if d := g.EuclideanDistance(u, v); d < bestD {
					bestD, bu, bv = d, u, v
				}
			}
		}
		g.AddBoth(graph.Edge{From: bu, To: bv, Weight: edgeWeight(bestD, cc.UnitWeights)})
	}
}

// linkClusters adds l.Edges symmetric edges between the closest distinct
// node pairs of clusters l.A and l.B — the "border cities" of the
// paper's railway example. Each endpoint is used at most once per link
// so the future disconnection set gets distinct nodes.
func linkClusters(g *graph.Graph, l ClusterLink, cc Config) error {
	type pair struct {
		u, v graph.NodeID
		d    float64
	}
	var pairs []pair
	for _, u := range clusterNodes(l.A, cc.Nodes) {
		for _, v := range clusterNodes(l.B, cc.Nodes) {
			pairs = append(pairs, pair{u, v, g.EuclideanDistance(u, v)})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].d != pairs[j].d {
			return pairs[i].d < pairs[j].d
		}
		if pairs[i].u != pairs[j].u {
			return pairs[i].u < pairs[j].u
		}
		return pairs[i].v < pairs[j].v
	})
	used := make(map[graph.NodeID]bool)
	added := 0
	for _, p := range pairs {
		if added == l.Edges {
			break
		}
		if used[p.u] || used[p.v] {
			continue
		}
		used[p.u], used[p.v] = true, true
		g.AddBoth(graph.Edge{From: p.u, To: p.v, Weight: edgeWeight(p.d, cc.UnitWeights)})
		added++
	}
	if added < l.Edges {
		return fmt.Errorf("gen: link %v: only %d distinct border pairs available", l, added)
	}
	return nil
}
