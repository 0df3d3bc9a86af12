package dsa

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/relation"
	"repro/internal/tc"
)

// Engine selects the algorithm a site uses for its local recursive
// subquery — "for evaluating the recursive subquery on a fragment any
// suitable single-processor algorithm may be chosen" (§2.1).
type Engine int

const (
	// EngineDijkstra runs one Dijkstra per entry node on the augmented
	// fragment — the fast practical engine.
	EngineDijkstra Engine = iota
	// EngineSemiNaive runs the relational semi-naive min-cost fixpoint
	// with the entry set pushed as a selection; it reports the
	// iteration counts the paper's workload analysis is phrased in.
	EngineSemiNaive
	// EngineBitset runs the entry-set-restricted bitset-parallel
	// reachability kernel (tc.BitsetReachableFrom) over the augmented
	// fragment. It is connectivity-only: leg facts carry the presence
	// marker 1 instead of a path cost (the convention of
	// ProblemReachability complementary tables), so Connected works on
	// every store but cost queries refuse it.
	EngineBitset
	// EngineDense runs the entry-set-restricted dense cost kernel
	// (tc.DenseGraph.CostFrom) over a CSR snapshot of the augmented
	// fragment that the site builds once and reuses across legs. Unlike
	// the bitset engine it carries real path costs, so it answers both
	// cost and connectivity queries — the kernel-class engine for the
	// paper's headline workload.
	EngineDense
)

// String names the engine the way the CLI flags spell it.
func (e Engine) String() string {
	switch e {
	case EngineDijkstra:
		return "dijkstra"
	case EngineSemiNaive:
		return "seminaive"
	case EngineBitset:
		return "bitset"
	case EngineDense:
		return "dense"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// ParseEngine resolves an engine name, case-insensitively. Unknown
// names return an error wrapping ErrUnknownEngine — call sites must
// branch with errors.Is, never by matching engine-name strings
// themselves.
func ParseEngine(name string) (Engine, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "dijkstra":
		return EngineDijkstra, nil
	case "seminaive":
		return EngineSemiNaive, nil
	case "bitset":
		return EngineBitset, nil
	case "dense":
		return EngineDense, nil
	}
	return 0, fmt.Errorf("dsa: %w %q (want dijkstra, seminaive, bitset or dense)", ErrUnknownEngine, name)
}

// ValidEngine reports whether e is a known engine — the single source
// of truth layers above (the serving layer, CLIs) check against, so an
// engine added here is automatically accepted everywhere.
func ValidEngine(e Engine) bool {
	switch e {
	case EngineDijkstra, EngineSemiNaive, EngineBitset, EngineDense:
		return true
	}
	return false
}

// LegResult is one executed leg: the (entry, exit, cost) facts it
// produced, as a small relation to be joined in the assembly phase.
type LegResult struct {
	// Leg echoes the executed leg.
	Leg Leg
	// Rel holds the produced facts, schema (src, dst, cost).
	Rel *relation.Relation
	// Stats reports the local fixpoint work.
	Stats tc.Stats
	// Took is the site-local execution time.
	Took time.Duration
}

// SiteWork summarises one site's contribution to a query.
type SiteWork struct {
	// Legs is the number of legs the site executed.
	Legs int
	// Stats accumulates the fixpoint statistics of those legs.
	Stats tc.Stats
	// Elapsed is the site's total busy time.
	Elapsed time.Duration
}

// AssemblyStats reports the final combination phase — "effectively a
// sequence of binary joins between a number of very small relations"
// (§2.1).
type AssemblyStats struct {
	// Joins is the number of binary joins performed.
	Joins int
	// MaxOperand is the largest operand cardinality seen, substantiating
	// the "very small relations" claim.
	MaxOperand int
}

// Outcome is the assembled answer of a query over one plan.
type Outcome struct {
	// Reachable reports whether any chain yielded a path.
	Reachable bool
	// Cost is the cheapest cost found; +Inf when unreachable.
	Cost float64
	// BestChain is the chain realising Cost; nil when unreachable.
	BestChain []int
	// Stats reports the assembly joins.
	Stats AssemblyStats
}

// Result is the answer to a disconnection-set query.
type Result struct {
	// Source and Target echo the query.
	Source, Target graph.NodeID
	// Reachable reports whether any path exists (along the considered
	// chains).
	Reachable bool
	// Cost is the shortest-path cost; +Inf when unreachable.
	Cost float64
	// BestChain is the fragment chain realising Cost (nil when
	// unreachable).
	BestChain []int
	// ChainsConsidered is the number of fragment chains evaluated.
	ChainsConsidered int
	// SameFragment reports the single-site fast path.
	SameFragment bool
	// Truncated propagates Plan.Truncated: chain enumeration hit the
	// MaxChains bound, so some fragment chains were never evaluated.
	// Reachable may then be a false negative and Cost is only an upper
	// bound on the true shortest-path cost; re-query with a higher
	// bound (or 0, unlimited) for an exact answer.
	Truncated bool
	// PerSite maps site IDs to their work.
	PerSite map[int]SiteWork
	// Assembly reports the final-phase joins.
	Assembly AssemblyStats
	// Elapsed is the wall-clock time of the whole query.
	Elapsed time.Duration
	// CriticalPath is the maximum single-site busy time — what the
	// elapsed time would be on truly parallel hardware with free
	// coordination.
	CriticalPath time.Duration
	// MessagesSent counts site→coordinator result shipments (the first
	// phase itself is communication-free; these are the assembly
	// inputs).
	MessagesSent int
	// TuplesShipped is the total cardinality of the shipped leg
	// results, the paper's "relatively small operands".
	TuplesShipped int
}

// PlanResult initialises the Result scaffolding every executor shares
// (Execute and the pipelined chain walk): the echoed query fields plus
// the source==target and no-chain fast paths. done reports that the
// result is already complete and phase 1 can be skipped; Elapsed is
// left to the caller.
func (st *Store) PlanResult(plan *Plan) (res *Result, done bool) {
	res = &Result{
		Source:           plan.Source,
		Target:           plan.Target,
		Cost:             math.Inf(1),
		SameFragment:     plan.SameFragment,
		Truncated:        plan.Truncated,
		ChainsConsidered: len(plan.Chains),
		PerSite:          make(map[int]SiteWork),
	}
	if plan.Source == plan.Target {
		res.Reachable = true
		res.Cost = 0
		if fs := st.fr.FragmentsOf(plan.Source); len(fs) > 0 {
			res.BestChain = []int{fs[0]}
		}
		return res, true
	}
	if len(plan.Chains) == 0 {
		return res, true
	}
	return res, false
}

// FinishPlan folds executed leg results into a PlanResult-initialised
// res: per-site work accounting, the critical path, and the assembly
// phase. results must be indexed like plan.Legs; Elapsed is left to
// the caller.
func (st *Store) FinishPlan(plan *Plan, results []*LegResult, res *Result) error {
	for i, lr := range results {
		if lr == nil {
			return fmt.Errorf("dsa: finish: missing result for leg %d", i)
		}
		w := res.PerSite[lr.Leg.SiteID]
		w.Legs++
		w.Stats.Add(lr.Stats)
		w.Elapsed += lr.Took
		res.PerSite[lr.Leg.SiteID] = w
		res.MessagesSent++
		res.TuplesShipped += lr.Rel.Len()
	}
	for _, w := range res.PerSite {
		if w.Elapsed > res.CriticalPath {
			res.CriticalPath = w.Elapsed
		}
	}
	out, err := st.Assemble(plan, results)
	if err != nil {
		return err
	}
	res.Reachable = out.Reachable
	res.Cost = out.Cost
	res.BestChain = out.BestChain
	res.Assembly = out.Stats
	return nil
}

// LegSource reports where one leg's unfiltered relation came from.
type LegSource struct {
	// Hit reports a leg-cache hit (for a remote leg, the owner's
	// cache verdict).
	Hit bool
	// Fallback reports degraded-mode execution: the site's remote
	// owner was unreachable and the leg ran locally instead.
	Fallback bool
}

// LegExecutor is the seam between Execute and the deployment it runs
// on. It decides only where and from what each leg runs; Execute owns
// everything else — cancellation, the exit-set selection, per-site
// accounting and assembly — so every deployment answers through the
// same code.
type LegExecutor interface {
	// Dispatch schedules fn, one leg of siteID. fn signals its own
	// completion; Dispatch only guarantees that it eventually runs.
	Dispatch(siteID int, fn func())
	// Full returns every (src, dst, cost) fact derivable from entry on
	// the site — the unfiltered leg relation ExecuteLegFullCtx computes
	// — together with its stats and where it came from.
	Full(ctx context.Context, siteID int, entry []graph.NodeID, engine Engine) (*relation.Relation, tc.Stats, LegSource, error)
}

// LocalLegs returns the library's default leg executor: every leg on
// its own goroutine, computed by ExecuteLegFullCtx on this store — the
// goroutine-per-processor realisation of the paper's "neither
// communication nor synchronization is required during the first
// phase of the computation".
func (st *Store) LocalLegs() LegExecutor { return localLegs{st} }

type localLegs struct{ st *Store }

func (localLegs) Dispatch(_ int, fn func()) { go fn() }

func (l localLegs) Full(ctx context.Context, siteID int, entry []graph.NodeID, engine Engine) (*relation.Relation, tc.Stats, LegSource, error) {
	full, stats, err := l.st.ExecuteLegFullCtx(ctx, siteID, entry, engine)
	return full, stats, LegSource{}, err
}

// ExecStats reports how the legs of one Execute call were sourced.
type ExecStats struct {
	// CacheHits and CacheMisses count the legs whose relation did and
	// did not come from a cache.
	CacheHits, CacheMisses int
	// FallbackSites lists the site of every leg that ran in degraded
	// local mode (a site repeats when several of its legs did).
	FallbackSites []int
}

// Execute answers a prepared plan: phase 1 runs every leg through legs
// (Dispatch decides where, Full from what) and specialises it with
// FilterLegFacts, phase 2 assembles the small leg relations. Legs
// observe ctx before they start — a canceled query's queued legs
// become no-ops returning ErrCanceled — and the kernels observe it
// while they run. The first failed leg's error (in plan order) is
// returned once every dispatched leg has finished.
func (st *Store) Execute(ctx context.Context, plan *Plan, engine Engine, legs LegExecutor) (*Result, ExecStats, error) {
	var es ExecStats
	if !ValidEngine(engine) {
		return nil, es, fmt.Errorf("dsa: %w %d", ErrUnknownEngine, engine)
	}
	start := time.Now()
	res, done := st.PlanResult(plan)
	if done {
		res.Elapsed = time.Since(start)
		return res, es, nil
	}

	results := make([]*LegResult, len(plan.Legs))
	sources := make([]LegSource, len(plan.Legs))
	errs := make([]error, len(plan.Legs))
	var wg sync.WaitGroup
	wg.Add(len(plan.Legs))
	for i, leg := range plan.Legs {
		legs.Dispatch(leg.SiteID, func() {
			defer wg.Done()
			if ctx.Err() != nil {
				errs[i] = canceledErr(ctx)
				return
			}
			t0 := time.Now()
			full, stats, src, err := legs.Full(ctx, leg.SiteID, leg.Entry, engine)
			if err != nil {
				errs[i] = err
				return
			}
			sources[i] = src
			results[i], errs[i] = filterLeg(leg, full, stats, t0)
		})
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, es, err
		}
	}
	for i, src := range sources {
		if src.Hit {
			es.CacheHits++
		} else {
			es.CacheMisses++
		}
		if src.Fallback {
			es.FallbackSites = append(es.FallbackSites, plan.Legs[i].SiteID)
		}
	}

	// Phase 2: accounting + assembly.
	if err := st.FinishPlan(plan, results, res); err != nil {
		return nil, es, err
	}
	res.Elapsed = time.Since(start)
	return res, es, nil
}

// ExecuteLegCtx executes one leg on its site with the chosen engine:
// ExecuteLegFullCtx followed by FilterLegFacts. It is the unit of work
// a simulated processor performs; package sim schedules these across
// simulated sites.
func (st *Store) ExecuteLegCtx(ctx context.Context, leg Leg, engine Engine) (*LegResult, error) {
	t0 := time.Now()
	full, stats, err := st.ExecuteLegFullCtx(ctx, leg.SiteID, leg.Entry, engine)
	if err != nil {
		return nil, err
	}
	return filterLeg(leg, full, stats, t0)
}

// filterLeg specialises an unfiltered leg relation to leg and stamps
// the site-local time since t0.
func filterLeg(leg Leg, full *relation.Relation, stats tc.Stats, t0 time.Time) (*LegResult, error) {
	out, err := FilterLegFacts(full, leg)
	if err != nil {
		return nil, err
	}
	stats.ResultTuples = out.Len()
	return &LegResult{Leg: leg, Rel: out, Stats: stats, Took: time.Since(t0)}, nil
}

// ExecuteLegFullCtx runs a leg engine from an entry set WITHOUT the
// exit-set selection: every (src, dst, cost) fact derivable from the
// entry nodes on the site's augmented fragment. This is the memoizable
// unit of leg execution — the expensive part of a leg depends only on
// (site, entry set, engine), while the exit set is a cheap selection —
// so a serving layer can cache the full relation under that key and
// specialise it per query with FilterLegFacts. For EngineBitset the
// cost column carries the presence marker 1 (the relation is a
// connectivity table).
//
// Cancellation is threaded into the engine kernels: the per-entry
// Dijkstra loop checks ctx between sources, and the relational, bitset
// and dense kernels observe it between fixpoint rounds / propagation
// levels. A canceled leg returns ErrCanceled.
func (st *Store) ExecuteLegFullCtx(ctx context.Context, siteID int, entry []graph.NodeID, engine Engine) (*relation.Relation, tc.Stats, error) {
	if siteID < 0 || siteID >= len(st.sites) {
		return nil, tc.Stats{}, fmt.Errorf("dsa: %w: leg site %d out of range", ErrUnknownSite, siteID)
	}
	site := st.sites[siteID]
	full := relation.New("src", "dst", "cost")
	var stats tc.Stats
	switch engine {
	case EngineDijkstra:
		for _, a := range entry {
			if ctx.Err() != nil {
				return nil, stats, canceledErr(ctx)
			}
			dist, _ := site.augmented.ShortestPaths(a)
			for x, d := range dist {
				if a != x {
					full.MustInsert(relation.Tuple{int64(a), int64(x), d})
				}
			}
			stats.DerivedTuples += len(dist)
		}
	case EngineSemiNaive:
		// ShortestFrom already returns a freshly owned (src, dst, cost)
		// relation; adopt it instead of copying.
		rel, s, err := tc.ShortestFromCtx(ctx, site.rel(), entry)
		if err != nil {
			return nil, tc.Stats{}, fmt.Errorf("dsa: site %d leg: %w", site.ID, err)
		}
		stats = s
		full = rel
	case EngineBitset:
		pairs, s, err := tc.BitsetReachableFromCtx(ctx, site.rel(), entry)
		if err != nil {
			return nil, tc.Stats{}, fmt.Errorf("dsa: site %d leg: %w", site.ID, err)
		}
		stats = s
		for _, t := range pairs.Tuples() {
			// Presence marker, not a path cost — assembly sums stay
			// finite and Reachable is exact; Cost is meaningless and
			// cost queries refuse this engine.
			full.MustInsert(relation.Tuple{t[0], t[1], 1.0})
		}
	case EngineDense:
		kernel, err := site.denseKernel()
		if err != nil {
			return nil, tc.Stats{}, err
		}
		// The site's CSR snapshot already owns its result relation.
		rel, s, err := kernel.CostFromCtx(ctx, entry)
		if err != nil {
			return nil, tc.Stats{}, fmt.Errorf("dsa: site %d leg: %w", site.ID, err)
		}
		stats = s
		full = rel
	default:
		return nil, tc.Stats{}, fmt.Errorf("dsa: %w %d", ErrUnknownEngine, engine)
	}
	stats.ResultTuples = full.Len()
	return full, stats, nil
}

// FilterLegFacts specialises ExecuteLegFullCtx output to one leg: the
// exit-set selection plus the zero-cost facts for entry nodes that are
// themselves exit nodes. Every executor applies it after the leg's
// unfiltered relation is obtained, so cached full relations and
// freshly executed legs assemble to identical answers.
func FilterLegFacts(full *relation.Relation, leg Leg) (*relation.Relation, error) {
	out, err := full.SelectInKeys("dst", relation.NodeKeySet(leg.Exit))
	if err != nil {
		return nil, err
	}
	for _, a := range leg.Entry {
		for _, x := range leg.Exit {
			if a == x {
				out.MustInsert(relation.Tuple{int64(a), int64(x), 0.0})
			}
		}
	}
	return out, nil
}

// Assemble folds executed leg results into the final answer: for each
// chain of the plan, a running (node, cost) vector is joined with each
// leg relation in turn and min-aggregated; the cheapest chain wins.
// results must be indexed like plan.Legs.
func (st *Store) Assemble(plan *Plan, results []*LegResult) (*Outcome, error) {
	if len(results) != len(plan.Legs) {
		return nil, fmt.Errorf("dsa: assemble: %d results for %d legs", len(results), len(plan.Legs))
	}
	out := &Outcome{Cost: math.Inf(1)}
	for ci, chain := range plan.Chains {
		cost, ok, err := st.assembleChain(plan, results, ci, &out.Stats)
		if err != nil {
			return nil, err
		}
		if ok && cost < out.Cost {
			out.Cost = cost
			out.BestChain = chain
			out.Reachable = true
		}
	}
	return out, nil
}

// assembleChain folds the leg results of chain ci into the cost from
// source to target along that chain.
func (st *Store) assembleChain(plan *Plan, results []*LegResult, ci int, stats *AssemblyStats) (float64, bool, error) {
	vec := relation.New("node", "cost")
	vec.MustInsert(relation.Tuple{int64(plan.Source), 0.0})
	for _, li := range plan.chainLegs[ci] {
		lr := results[li]
		if lr == nil {
			return 0, false, fmt.Errorf("dsa: assemble: missing result for leg %d", li)
		}
		if lr.Rel.Len() > stats.MaxOperand {
			stats.MaxOperand = lr.Rel.Len()
		}
		if vec.Len() > stats.MaxOperand {
			stats.MaxOperand = vec.Len()
		}
		legRel, err := lr.Rel.Rename("node", "next", "step")
		if err != nil {
			return 0, false, err
		}
		joined, err := vec.Join(legRel, []string{"node"}, []string{"node"})
		if err != nil {
			return 0, false, err
		}
		stats.Joins++
		next := relation.New("node", "cost")
		for _, t := range joined.Tuples() {
			next.MustInsert(relation.Tuple{t[2], t[1].(float64) + t[3].(float64)})
		}
		vec, err = next.MinBy("cost", "node")
		if err != nil {
			return 0, false, err
		}
		if vec.Len() == 0 {
			return 0, false, nil // chain broken: no path through this DS
		}
	}
	at, err := vec.SelectEq("node", int64(plan.Target))
	if err != nil {
		return 0, false, err
	}
	cost, ok, err := at.MinValue("cost")
	if err != nil {
		return 0, false, err
	}
	return cost, ok, nil
}

// ChainLegs exposes, for each chain of the plan, the indices into
// plan.Legs along it (read-only view for external schedulers and
// tests).
func (p *Plan) ChainLegs() [][]int { return p.chainLegs }
