package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/dsa"
	"repro/internal/graph"
	"repro/internal/relation"
	"repro/internal/tc"
	"repro/pkg/tcq"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's side of the call.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run
// ends. Span IDs are 1-based indices into spans; 0 means "no span"
// (the root, or a call made while not recording).
type tracer struct {
	t0     time.Time
	req    int
	record bool

	mu    sync.Mutex // legs record spans concurrently
	spans []span
}

func (t *tracer) start(parent int, name string) (int, time.Time) {
	begin := time.Now()
	if !t.record {
		return 0, begin
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Req: t.req, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(begin.Sub(t.t0))})
	return len(t.spans), begin
}

func (t *tracer) stop(id int, begin time.Time) time.Duration {
	end := time.Now()
	if id > 0 {
		t.mu.Lock()
		t.spans[id-1].End = int64(end.Sub(t.t0))
		t.mu.Unlock()
	}
	return end.Sub(begin)
}

// covered is the part of span id's interval that its children's
// intervals cover; a span's self time is its duration minus this.
func (t *tracer) covered(id int) time.Duration {
	if id == 0 {
		return 0
	}
	t.mu.Lock()
	var iv []span
	for _, s := range t.spans[id:] {
		if s.Parent == id {
			iv = append(iv, s)
		}
	}
	t.mu.Unlock()
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total, reach int64
	for _, s := range iv {
		lo := max(s.Start, reach)
		if s.End > lo {
			total += s.End - lo
			reach = s.End
		}
	}
	return time.Duration(total)
}

// time runs fn as one span under parent and returns its duration.
func (t *tracer) time(parent int, name string, fn func()) time.Duration {
	id, begin := t.start(parent, name)
	fn()
	return t.stop(id, begin)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// memo mirrors the server's leg cache from outside: keyed like it
// (engine, site, entry set), bounded like it, and invalidated per
// rebuilt site on every write, so the decomposed path runs the kernel
// exactly when the server misses.
type memo struct {
	capacity int
	full     map[string]memoEntry
	calls    int // kernel calls made on misses
}

type memoEntry struct {
	site  int
	rel   *relation.Relation
	stats tc.Stats
}

func memoKey(engine dsa.Engine, site int, entry []graph.NodeID) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|%d|", engine, site)
	for _, n := range entry {
		fmt.Fprintf(&sb, "%d,", n)
	}
	return sb.String()
}

func (m *memo) invalidate(sites []int) {
	for _, s := range sites {
		for k, e := range m.full {
			if e.site == s {
				delete(m.full, k)
			}
		}
	}
}

// tracedPass is the state of one traced replay: a fleet answering over
// HTTP, a second fleet booted over the same datasets answering
// in-process through its facade (so neither call warms the other's
// cache), and the decomposed path over the datasets' snapshots.
type tracedPass struct {
	ctx     context.Context
	dep     *deployment
	viaHTTP *api
	facade  *fleet
	plain   []*tcq.Client // planner-only facade clients, one per node
	peers   map[string]*cluster.HTTPTransport
	tr      *tracer

	mu    sync.Mutex // guards memo and peers against concurrent legs
	memo  *memo
	tally *tally
	sums  layerSums
}

// layerSums accumulates the recorded part of a traced pass.
type layerSums struct {
	reads, legs, remoteLegs, writes, journalWrites int
	root                                           []time.Duration
	httpSelf, serverSelf                           time.Duration
	tcqPlan, dsaPlan, filter, assemble             time.Duration
	kernel, rpc, apply                             time.Duration
	kernelCalls, fullTuples, keptTuples            int
	maxOperand, legRespBytes, journalBytes         int
	rebuilt                                        int
}

func (p *tracedPass) do(o op) {
	p.tr.req++
	if o.write {
		p.write(o)
	} else {
		p.read(o)
	}
}

// read traces one query three ways: the HTTP call, the facade call on
// the second fleet, and the decomposed path.
func (p *tracedPass) read(o op) {
	req := tcq.Request{Sources: []int{o.src}, Targets: []int{o.dst}, Mode: tcq.ModeCost}

	var out outcome
	httpDur := p.tr.time(0, "http.query", func() { out = p.viaHTTP.do(p.ctx, o) })
	p.tally.add(out)

	var res *tcq.Result
	var err error
	facadeDur := p.tr.time(0, "facade.query", func() { res, err = p.facade.servers[o.node].Facade().Query(p.ctx, req) })
	p.tally.add(facadeOutcome(o, res, err))

	var s layerSums
	ans, covered, err := p.decomposed(o, req, &s)
	p.tally.add(outcome{op: o, ans: ans, err: err})

	if p.tr.record {
		s.reads = 1
		s.root = []time.Duration{httpDur}
		s.httpSelf = httpDur - facadeDur
		s.serverSelf = facadeDur - covered
		p.sums.add(s)
	}
}

// decomposed runs one read through the layers' public functions in the
// order the server does — Client.Plan → Store.NewPlan → per leg
// ExecuteLegFullCtx, or HTTPTransport.ExecuteLeg to a remote owner, then
// FilterLegFacts → Store.Assemble — on the engine the planner chose.
// Legs run concurrently, one goroutine each, as they do on the
// server's per-site pools. It returns the answer and the part of the
// path its child spans cover.
func (p *tracedPass) decomposed(o op, req tcq.Request, s *layerSums) (answer, time.Duration, error) {
	ans := answer{src: o.src, dst: o.dst}
	root, begin := p.tr.start(0, "path")
	covered := func() time.Duration {
		p.tr.stop(root, begin)
		return p.tr.covered(root)
	}

	var ex tcq.Explain
	var err error
	s.tcqPlan = p.tr.time(root, "tcq.plan", func() { ex, err = p.plain[o.node].Plan(req) })
	if err != nil {
		return ans, covered(), err
	}
	engine, err := dsa.ParseEngine(ex.Engine.String())
	if err != nil {
		return ans, covered(), err
	}
	snap := p.dep.datasets[o.node].Snapshot()
	st := snap.Store()
	var plan *dsa.Plan
	s.dsaPlan = p.tr.time(root, "dsa.plan", func() { plan, err = st.NewPlan(graph.NodeID(o.src), graph.NodeID(o.dst)) })
	if err != nil {
		return ans, covered(), err
	}
	if res, done := st.PlanResult(plan); done {
		ans.reachable, ans.cost = res.Reachable, res.Cost
		return ans, covered(), nil
	}
	results := make([]*dsa.LegResult, len(plan.Legs))
	sums := make([]layerSums, len(plan.Legs))
	errs := make([]error, len(plan.Legs))
	var wg sync.WaitGroup
	for i, leg := range plan.Legs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = p.leg(root, o.node, snap.Epoch(), st, leg, engine, &sums[i])
		}()
	}
	wg.Wait()
	for i := range plan.Legs {
		s.add(sums[i])
	}
	if err := errors.Join(errs...); err != nil {
		return ans, covered(), err
	}
	var outc *dsa.Outcome
	s.assemble = p.tr.time(root, "dsa.assemble", func() { outc, err = st.Assemble(plan, results) })
	if err != nil {
		return ans, covered(), err
	}
	s.maxOperand = outc.Stats.MaxOperand
	ans.reachable, ans.cost = outc.Reachable, outc.Cost
	return ans, covered(), nil
}

// leg executes one leg and filters it to the leg's exit set. The full
// relation comes over the /v1/leg RPC when another cluster node owns
// the site, else from the memo or, on a miss, the kernel.
func (p *tracedPass) leg(root, node int, epoch uint64, st *dsa.Store, leg dsa.Leg, engine dsa.Engine, s *layerSums) (*dsa.LegResult, error) {
	full, stats, err := p.full(root, node, epoch, st, leg, engine, s)
	if err != nil {
		return nil, err
	}
	var kept *relation.Relation
	s.filter = p.tr.time(root, "dsa.filter", func() { kept, err = dsa.FilterLegFacts(full, leg) })
	if err != nil {
		return nil, err
	}
	s.legs = 1
	s.fullTuples, s.keptTuples = full.Len(), kept.Len()
	return &dsa.LegResult{Leg: leg, Rel: kept, Stats: stats}, nil
}

func (p *tracedPass) full(root, node int, epoch uint64, st *dsa.Store, leg dsa.Leg, engine dsa.Engine, s *layerSums) (*relation.Relation, tc.Stats, error) {
	if p.facade.coords != nil && !p.facade.coords[node].IsLocal(leg.SiteID) {
		owner := p.facade.coords[node].Owner(leg.SiteID)
		p.mu.Lock()
		tp, ok := p.peers[owner.ID]
		if !ok {
			tp = cluster.NewHTTPTransport(owner, time.Minute)
			p.peers[owner.ID] = tp
		}
		p.mu.Unlock()
		var resp *cluster.LegResponse
		var err error
		s.rpc = p.tr.time(root, "cluster.rpc", func() {
			resp, err = tp.ExecuteLeg(p.ctx, cluster.NewLegRequest(leg.SiteID, leg.Entry, engine.String(), epoch))
		})
		if err != nil {
			return nil, tc.Stats{}, err
		}
		// The owner writes the response with json.Encoder, which
		// appends one newline to the marshalled value.
		raw, err := json.Marshal(resp)
		if err != nil {
			return nil, tc.Stats{}, err
		}
		s.remoteLegs = 1
		s.legRespBytes = len(raw) + 1
		full, stats, err := resp.Facts()
		if err != nil {
			return nil, tc.Stats{}, err
		}
		// The owner caches every leg it serves, so the memo records it
		// too: a later query coordinated by the owner hits.
		return full, stats, p.remember(memoKey(engine, leg.SiteID, leg.Entry), leg.SiteID, full, stats, false)
	}
	key := memoKey(engine, leg.SiteID, leg.Entry)
	p.mu.Lock()
	e, ok := p.memo.full[key]
	p.mu.Unlock()
	if ok {
		return e.rel, e.stats, nil
	}
	var full *relation.Relation
	var stats tc.Stats
	var err error
	s.kernel = p.tr.time(root, "tc.kernel", func() { full, stats, err = st.ExecuteLegFullCtx(p.ctx, leg.SiteID, leg.Entry, engine) })
	s.kernelCalls = 1
	if err != nil {
		return nil, tc.Stats{}, err
	}
	return full, stats, p.remember(key, leg.SiteID, full, stats, true)
}

// remember stores a leg in the memo, counting a kernel call when this
// process ran it.
func (p *tracedPass) remember(key string, site int, full *relation.Relation, stats tc.Stats, ran bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ran {
		p.memo.calls++
	}
	if p.memo.capacity == 0 {
		return nil
	}
	if _, ok := p.memo.full[key]; !ok && len(p.memo.full) >= p.memo.capacity {
		return fmt.Errorf("memo: %d distinct legs outgrew the %d-entry cache; the server would evict", len(p.memo.full)+1, p.memo.capacity)
	}
	p.memo.full[key] = memoEntry{site: site, rel: full, stats: stats}
	return nil
}

// write applies one transaction over HTTP, then the same transaction
// through Dataset.Apply directly (on every node, so cluster epochs stay
// coherent); each nets to no change in the graph.
func (p *tracedPass) write(o op) {
	var out outcome
	p.tr.time(0, "http.update", func() { out = p.viaHTTP.do(p.ctx, o) })
	p.tally.add(out)
	p.memo.invalidate(out.rebuilt)

	b := (&tcq.Batch{}).Insert(o.frag, o.from, o.to, writeWeight).Delete(o.frag, o.from, o.to, writeWeight)
	journal := filepath.Join(p.dep.dir, "journal.log")
	before := fileSize(journal)
	var res tcq.ApplyResult
	var err error
	d := p.tr.time(0, "tcq.apply", func() { res, err = p.dep.datasets[o.node].Apply(p.ctx, b) })
	grew := fileSize(journal) - before
	for i, ds := range p.dep.datasets {
		if i != o.node && err == nil {
			_, err = ds.Apply(p.ctx, b)
		}
	}
	p.tally.add(outcome{op: o, err: err})
	p.memo.invalidate(res.Stats.SitesRebuilt)
	if !p.tr.record || err != nil {
		return
	}
	s := layerSums{writes: 1, apply: d, rebuilt: len(res.Stats.SitesRebuilt)}
	// A checkpoint taken inside Apply truncates the journal; only
	// plain appends measure the record size.
	if p.dep.dir != "" && grew > 0 {
		s.journalBytes, s.journalWrites = int(grew), 1
	}
	p.sums.add(s)
}

func (a *layerSums) add(b layerSums) {
	a.reads += b.reads
	a.legs += b.legs
	a.remoteLegs += b.remoteLegs
	a.writes += b.writes
	a.journalWrites += b.journalWrites
	a.root = append(a.root, b.root...)
	a.httpSelf += b.httpSelf
	a.serverSelf += b.serverSelf
	a.tcqPlan += b.tcqPlan
	a.dsaPlan += b.dsaPlan
	a.filter += b.filter
	a.assemble += b.assemble
	a.kernel += b.kernel
	a.rpc += b.rpc
	a.apply += b.apply
	a.kernelCalls += b.kernelCalls
	a.fullTuples += b.fullTuples
	a.keptTuples += b.keptTuples
	a.maxOperand += b.maxOperand
	a.legRespBytes += b.legRespBytes
	a.journalBytes += b.journalBytes
	a.rebuilt += b.rebuilt
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// facadeOutcome turns an in-process facade result into an outcome the
// tally can check.
func facadeOutcome(o op, res *tcq.Result, err error) outcome {
	out := outcome{op: o, err: err}
	if err != nil {
		return out
	}
	if len(res.Answers) != 1 {
		out.err = fmt.Errorf("facade: pair %d->%d: %d answers for one pair", o.src, o.dst, len(res.Answers))
		return out
	}
	a := res.Answers[0]
	out.ans = answer{src: o.src, dst: o.dst, reachable: a.Reachable, cost: a.Cost}
	return out
}

// runTraced replays the workload's stream with one client on a fresh
// deployment and returns the per-layer metrics the spans give. readP50
// is the untraced run's read median, the base of the overhead ratio.
func runTraced(ctx context.Context, cfg config, st *stream, t *tally, readP50 time.Duration) (_ []metric, err error) {
	dep, err := deploy(cfg.wl, cfg.shape)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, dep.close()) }()
	viaHTTP, err := dep.boot()
	if err != nil {
		return nil, err
	}
	facade, err := dep.boot()
	if err != nil {
		return nil, err
	}
	p := &tracedPass{
		ctx: ctx, dep: dep, viaHTTP: newAPI(viaHTTP.urls), facade: facade,
		peers: map[string]*cluster.HTTPTransport{},
		memo:  &memo{capacity: cfg.wl.cache, full: map[string]memoEntry{}},
		tr:    &tracer{t0: time.Now()},
		tally: t,
	}
	defer p.viaHTTP.close()
	for _, ds := range dep.datasets {
		c, err := ds.Open()
		if err != nil {
			return nil, err
		}
		p.plain = append(p.plain, c)
	}

	before, err := fetchFleetStats(viaHTTP.urls)
	if err != nil {
		return nil, err
	}
	for _, o := range st.pool {
		p.do(o)
	}
	p.tr.record = true
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		p.do(st.ops[i%len(st.ops)])
	}
	after, err := fetchFleetStats(viaHTTP.urls)
	if err != nil {
		return nil, err
	}
	d := diffStats(before, after)
	// The memo must have run the kernel exactly when the server missed.
	// With the cache disabled the server counts no lookups, so its
	// kernel calls are its legs minus its hits in both cases.
	if cfg.wl.nodes == 1 && cfg.wl.writeShare == 0 {
		var err error
		switch server := int(d.legs - d.hits); {
		case cfg.wl.cache > 0 && d.misses != d.legs-d.hits:
			err = fmt.Errorf("cross-check: server legs %g - hits %g != misses %g", d.legs, d.hits, d.misses)
		case server != p.memo.calls:
			err = fmt.Errorf("cross-check: traced pass ran %d kernel calls, server ran %d", p.memo.calls, server)
		}
		t.check(err)
	}
	if cfg.wl.nodes > 1 {
		var err error
		if d.fallback > 0 {
			err = fmt.Errorf("cross-check: %g legs fell back to local execution: the traced pass measured degraded mode", d.fallback)
		}
		t.check(err)
	}
	if cfg.wl.writeShare == 0 {
		for _, o := range st.writes[:min(tracedWrites, len(st.writes))] {
			p.do(o)
		}
	}
	var checkpoint time.Duration
	if dep.dir != "" {
		var times []time.Duration
		for i := 0; i < 3; i++ {
			times = append(times, p.tr.time(0, "store.checkpoint", func() { err = dep.datasets[0].Checkpoint() }))
			if err != nil {
				return nil, err
			}
		}
		checkpoint = median(times)
	}
	if err := p.tr.write(cfg.spansPath); err != nil {
		return nil, err
	}

	s := p.sums
	reads, legs := float64(max(s.reads, 1)), float64(max(s.legs, 1))
	us := func(d time.Duration, n float64) float64 { return float64(d) / 1e3 / n }
	return []metric{
		{"http.self_us_per_read", "us", us(s.httpSelf, reads)},
		{"tcq.plan_us_per_read", "us", us(s.tcqPlan, reads)},
		{"server.self_us_per_read", "us", us(s.serverSelf, reads)},
		{"dsa.plan_us_per_read", "us", us(s.dsaPlan, reads)},
		{"dsa.legs_per_read", "count", float64(s.legs) / reads},
		{"dsa.filter_us_per_leg", "us", us(s.filter, legs)},
		{"dsa.filter_kept_ratio", "ratio", float64(s.keptTuples) / float64(max(s.fullTuples, 1))},
		{"dsa.assemble_us_per_read", "us", us(s.assemble, reads)},
		{"dsa.assemble_max_operand", "tuples", float64(s.maxOperand) / reads},
		{"dsa.sites_rebuilt_per_write", "count", float64(s.rebuilt) / float64(max(s.writes, 1))},
		{"tc.kernel_us_per_leg", "us", us(s.kernel, legs)},
		{"tc.kernel_calls_per_read", "count", float64(s.kernelCalls) / reads},
		{"tc.leg_tuples_per_leg", "tuples", float64(s.fullTuples) / legs},
		{"cluster.rpc_us_per_leg", "us", us(s.rpc, float64(max(s.remoteLegs, 1)))},
		{"cluster.leg_resp_kb", "KiB", float64(s.legRespBytes) / 1024 / float64(max(s.remoteLegs, 1))},
		{"tcq.apply_ms", "ms", float64(s.apply) / 1e6 / float64(max(s.writes, 1))},
		{"store.journal_bytes_per_write", "bytes", float64(s.journalBytes) / float64(max(s.journalWrites, 1))},
		{"store.checkpoint_ms", "ms", float64(checkpoint) / 1e6},
		{"trace.overhead_frac", "ratio", ratio(float64(quantile(s.root, 0.5)), float64(readP50)) - 1},
		{"trace.reads", "count", float64(s.reads)},
	}, nil
}
