package main

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/graph"
)

// oracle answers single-pair shortest-path costs with a plain binary-
// heap Dijkstra over the generated edge list. It deliberately shares no
// code with the engines under test (internal/graph's searches,
// internal/tc, internal/dsa): it only reads the edge list out of the
// generated graph.
type oracle struct {
	index map[int]int // node ID -> dense index
	adj   [][]arc
	dist  map[int][]float64 // memoized per source
}

type arc struct {
	to int
	w  float64
}

func newOracle(g *graph.Graph) *oracle {
	o := &oracle{index: map[int]int{}, dist: map[int][]float64{}}
	for _, n := range g.Nodes() {
		o.index[int(n)] = len(o.index)
	}
	o.adj = make([][]arc, len(o.index))
	for _, e := range g.Edges() {
		from := o.index[int(e.From)]
		o.adj[from] = append(o.adj[from], arc{to: o.index[int(e.To)], w: e.Weight})
	}
	return o
}

// cost returns the shortest-path cost from src to dst (+Inf when dst is
// unreachable).
func (o *oracle) cost(src, dst int) (float64, error) {
	s, ok := o.index[src]
	if !ok {
		return 0, fmt.Errorf("oracle: unknown source %d", src)
	}
	t, ok := o.index[dst]
	if !ok {
		return 0, fmt.Errorf("oracle: unknown target %d", dst)
	}
	d, ok := o.dist[src]
	if !ok {
		d = o.search(s)
		o.dist[src] = d
	}
	return d[t], nil
}

func (o *oracle) search(s int) []float64 {
	dist := make([]float64, len(o.adj))
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[s] = 0
	q := &queue{{node: s}}
	for q.Len() > 0 {
		it := heap.Pop(q).(item)
		if it.d > dist[it.node] {
			continue
		}
		for _, a := range o.adj[it.node] {
			if nd := it.d + a.w; nd < dist[a.to] {
				dist[a.to] = nd
				heap.Push(q, item{node: a.to, d: nd})
			}
		}
	}
	return dist
}

type item struct {
	node int
	d    float64
}

type queue []item

func (q queue) Len() int           { return len(q) }
func (q queue) Less(i, j int) bool { return q[i].d < q[j].d }
func (q queue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *queue) Push(x any)        { *q = append(*q, x.(item)) }
func (q *queue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// answer is one read's reply as the benchmark received it.
type answer struct {
	src, dst  int
	reachable bool
	cost      float64 // meaningful only when reachable
}

// check compares one answer with the oracle and returns nil when they
// agree. Costs in these graphs are sums of small integers, so equality
// is exact; the tolerance only absorbs float summation order.
func (o *oracle) check(a answer) error {
	want, err := o.cost(a.src, a.dst)
	if err != nil {
		return err
	}
	switch {
	case math.IsInf(want, 1) && a.reachable:
		return fmt.Errorf("pair %d->%d: answered reachable at cost %g, oracle says unreachable", a.src, a.dst, a.cost)
	case !math.IsInf(want, 1) && !a.reachable:
		return fmt.Errorf("pair %d->%d: answered unreachable, oracle cost %g", a.src, a.dst, want)
	case a.reachable && math.Abs(a.cost-want) > 1e-9*math.Max(1, want):
		return fmt.Errorf("pair %d->%d: answered cost %g, oracle cost %g", a.src, a.dst, a.cost, want)
	}
	return nil
}
