package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// outcome is one completed request as the benchmark saw it.
type outcome struct {
	op      op
	lat     time.Duration
	err     error
	ans     answer // reads
	epoch   uint64 // writes: the acknowledged epoch
	rebuilt []int  // writes: the fragments the server rebuilt
	bytes   int    // response body size
}

// loop is a closed-loop run: clients goroutines each send their next
// request only after the previous reply, taking op indices in order
// from a shared counter, until the duration elapses or, without a
// duration, until ops requests have been sent.
type loop struct {
	clients  int
	duration time.Duration
	ops      int
}

// benchmark runs one closed loop over do and returns every outcome in
// completion order, with the loop's wall time. Every workload reuses
// it: the warm-up pass, the timed window and the write phases.
func benchmark(cfg loop, do func(i int) outcome) ([]outcome, time.Duration) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		out  []outcome
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(cfg.duration)
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []outcome
			for {
				if cfg.duration > 0 && !time.Now().Before(deadline) {
					break
				}
				i := int(next.Add(1) - 1)
				if cfg.duration == 0 && i >= cfg.ops {
					break
				}
				t0 := time.Now()
				o := do(i)
				o.lat = time.Since(t0)
				mine = append(mine, o)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// api speaks the public /v1 wire protocol to a fleet.
type api struct {
	hc   *http.Client
	urls []string
}

func newAPI(urls []string) *api {
	return &api{
		hc:   &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}},
		urls: urls,
	}
}

func (a *api) close() { a.hc.CloseIdleConnections() }

// do sends one op to its node and decodes the reply.
func (a *api) do(ctx context.Context, o op) outcome {
	out := outcome{op: o}
	url := a.urls[o.node]
	if o.write {
		var resp server.V1UpdateResponse
		out.bytes, out.err = a.post(ctx, url+"/v1/update", writeRequest(o), &resp)
		out.epoch, out.rebuilt = resp.Epoch, resp.RebuiltFragments
		return out
	}
	var resp server.V1QueryResponse
	out.bytes, out.err = a.post(ctx, url+"/v1/query", readRequest(o), &resp)
	if out.err != nil {
		return out
	}
	if len(resp.Answers) != 1 {
		out.err = fmt.Errorf("pair %d->%d: %d answers for one pair", o.src, o.dst, len(resp.Answers))
		return out
	}
	v := resp.Answers[0]
	out.ans = answer{src: o.src, dst: o.dst, reachable: v.Reachable}
	if v.Reachable {
		if v.Cost == nil {
			out.err = fmt.Errorf("pair %d->%d: reachable answer without a cost", o.src, o.dst)
			return out
		}
		out.ans.cost = *v.Cost
	}
	return out
}

// post sends a JSON body and decodes a 200 reply into out, returning
// the reply's size. The body is read to the end before it is closed.
func (a *api) post(ctx context.Context, url string, body, out any) (int, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return len(raw), err
	}
	if resp.StatusCode != http.StatusOK {
		return len(raw), fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return len(raw), json.Unmarshal(raw, out)
}

func readRequest(o op) server.V1Request {
	return server.V1Request{Sources: []int{o.src}, Targets: []int{o.dst}, Mode: "cost"}
}

func writeRequest(o op) server.V1UpdateRequest {
	return server.V1UpdateRequest{Ops: []server.V1UpdateOp{
		{Op: "insert", Fragment: o.frag, From: o.from, To: o.to, Weight: writeWeight},
		{Op: "delete", Fragment: o.frag, From: o.from, To: o.to, Weight: writeWeight},
	}}
}

// fleetStats is the /stats snapshot of every node of a fleet.
type fleetStats []*server.Stats

func fetchFleetStats(urls []string) (fleetStats, error) {
	out := make(fleetStats, len(urls))
	for i, u := range urls {
		st, err := server.FetchStats(u)
		if err != nil {
			return nil, fmt.Errorf("GET %s/stats: %w", u, err)
		}
		out[i] = st
	}
	return out, nil
}

// statsDelta is the change of the fleet's counters between two
// snapshots, summed over nodes (busiest site: max over nodes).
type statsDelta struct {
	hits, misses, evictions float64
	invalidated, retained   float64
	legs                    float64
	busiestSiteNS           float64
	fanout, fallback        float64
}

func diffStats(a, b fleetStats) statsDelta {
	var d statsDelta
	for i := range a {
		x, y := a[i], b[i]
		d.hits += float64(y.Cache.Hits - x.Cache.Hits)
		d.misses += float64(y.Cache.Misses - x.Cache.Misses)
		d.evictions += float64(y.Cache.Evictions - x.Cache.Evictions)
		d.invalidated += float64(y.Cache.Invalidated - x.Cache.Invalidated)
		d.retained += float64(y.Cache.Retained - x.Cache.Retained)
		for s := range y.Site {
			d.legs += float64(y.Site[s].Legs - x.Site[s].Legs)
			if busy := float64(y.Site[s].BusyNS - x.Site[s].BusyNS); busy > d.busiestSiteNS {
				d.busiestSiteNS = busy
			}
		}
		d.fanout += sumFamily(y.Metrics, "tc_leg_fanout_total") - sumFamily(x.Metrics, "tc_leg_fanout_total")
		d.fallback += sumFamily(y.Metrics, "tc_cluster_leg_fallback_total") - sumFamily(x.Metrics, "tc_cluster_leg_fallback_total")
	}
	return d
}

// sumFamily adds up every labelled sample of one metric family in a
// flattened name{labels} -> value map.
func sumFamily(m map[string]float64, family string) float64 {
	var sum float64
	for k, v := range m {
		if k == family || strings.HasPrefix(k, family+"{") {
			sum += v
		}
	}
	return sum
}
