package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/graph"
)

// tinyShape keeps the smoke runs to a fraction of a second each.
var tinyShape = shape{side: 12, frags: 3}

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmokeEveryWorkload runs every workload untraced and traced on a
// tiny grid and checks that each declared metric is emitted with its
// unit and that no operation failed.
func TestSmokeEveryWorkload(t *testing.T) {
	e2e, layer := declared(t)
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			want := e2e
			if traced {
				want = layer
			}
			cfg := config{
				wl: wl, shape: tinyShape, seed: 3, seconds: 300 * time.Millisecond,
				trace: traced, setups: 2, spansPath: filepath.Join(t.TempDir(), "spans.jsonl"),
			}
			rep, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, traced, err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", wl.name, traced, rep.failed, rep.attempted, rep.errs)
			}
			got := map[string]string{}
			for _, m := range rep.metrics {
				if !metricName.MatchString(m.name) {
					t.Errorf("%s: metric name %q does not match %s", wl.name, m.name, metricName)
				}
				got[m.name] = m.unit
			}
			for name, unit := range want {
				if got[name] != unit {
					t.Errorf("%s trace=%v: metric %s: got unit %q, want %q", wl.name, traced, name, got[name], unit)
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: emitted %d metrics, BENCHMARK.json declares %d", wl.name, traced, len(got), len(want))
			}
		}
	}
}

// TestCheckerCountsWrongAnswers feeds the tally answers that disagree
// with the oracle and expects each to count as a failure.
func TestCheckerCountsWrongAnswers(t *testing.T) {
	g := graph.New()
	for i := 0; i < 3; i++ {
		g.AddNode(graph.NodeID(i), graph.Coord{})
	}
	g.AddEdge(graph.Edge{From: 0, To: 1, Weight: 2})
	g.AddEdge(graph.Edge{From: 1, To: 2, Weight: 3})
	tl := &tally{orc: newOracle(g)}

	tl.add(outcome{op: op{src: 0, dst: 2}, ans: answer{src: 0, dst: 2, reachable: true, cost: 5}})
	if tl.failed != 0 {
		t.Fatalf("a correct answer failed: %v", tl.errs)
	}
	for _, wrong := range []answer{
		{src: 0, dst: 2, reachable: true, cost: 4}, // wrong cost
		{src: 0, dst: 2, reachable: false},         // missed a path
		{src: 2, dst: 0, reachable: true, cost: 5}, // invented a path
	} {
		tl.add(outcome{op: op{src: wrong.src, dst: wrong.dst}, ans: wrong})
	}
	if tl.attempted != 4 || tl.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 4 and 3 (%v)", tl.attempted, tl.failed, tl.errs)
	}
}

// TestQuantile checks the Harrell–Davis estimator on samples whose
// quantiles are known.
func TestQuantile(t *testing.T) {
	for _, n := range []int{101, 2501} {
		var d []time.Duration
		for i := n; i >= 1; i-- {
			d = append(d, time.Duration(i))
		}
		for _, p := range []float64{0.5, 0.9, 0.95} {
			want := p * float64(n+1)
			if got := float64(quantile(d, p)); math.Abs(got-want) > 1 {
				t.Errorf("p%g of 1..%d = %g, want about %g", 100*p, n, got, want)
			}
		}
	}
	same := []time.Duration{7, 7, 7, 7}
	if got := quantile(same, 0.95); got != 7 {
		t.Errorf("p95 of a constant sample = %d, want 7", got)
	}
	if got := median([]time.Duration{3, 1, 2}); got != 2 {
		t.Errorf("median(3, 1, 2) = %d, want 2", got)
	}
}
