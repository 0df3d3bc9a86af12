// Package server is the long-lived query-serving layer over a tcq
// dataset: persistent per-site worker pools (the paper's processors,
// kept alive across queries), a bounded LRU leg-result cache that
// memoizes the expensive half of leg execution across queries, and an
// HTTP/JSON API. It turns the one-shot library pipeline into the
// serving system the ROADMAP's "heavy traffic" north star asks for:
// many concurrent queries interleave their per-site legs exactly the
// way the paper's sites would interleave independent subqueries.
//
// Concurrency model: reads are lock-free — every query pins the
// immutable store generation current when it starts (one atomic
// pointer load through tcq.Dataset) and runs on it to completion.
// Updates build the next generation copy-on-write off to the side
// (only the touched fragments are re-preprocessed) and swap the
// pointer, so writers never block readers and vice versa. On every
// swap the leg cache is invalidated eagerly per changed fragment:
// entries computed on rebuilt sites are dropped, entries on
// structurally shared sites are retagged to the new epoch and keep
// serving. Cache entries remain epoch-tagged, making staleness
// impossible even if an invalidation were missed.
package server

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/dsa"
	"repro/internal/graph"
	"repro/internal/relation"
	"repro/internal/tc"
	"repro/pkg/tcq"
)

// Config tunes a Server.
type Config struct {
	// CacheCapacity bounds the leg-result cache in entries; 0 disables
	// memoization.
	CacheCapacity int
	// SiteWorkers is the number of worker goroutines per site (default
	// 1: each site serialises its legs like a single-processor site).
	SiteWorkers int
	// Cluster enables multi-node scatter-gather: legs of sites the
	// coordinator assigns to peers execute remotely over its transport,
	// and /v1/update transactions fan out to every peer with a coherent
	// epoch swap. nil (the default) keeps every site local.
	Cluster *cluster.Coordinator
}

// Server is a live deployment: a dataset, its worker pools and the
// leg-result cache.
type Server struct {
	ds          *tcq.Dataset
	cache       *legCache
	pools       *sitePools
	cfg         Config
	facade      *tcq.Client
	unsubscribe func()
	start       time.Time
	metrics     *serverMetrics
	cluster     *cluster.Coordinator
	history     *snapHistory

	queries    atomic.Uint64
	connected  atomic.Uint64
	pipelined  atomic.Uint64
	updates    atomic.Uint64
	errors     atomic.Uint64
	siteLegs   []atomic.Uint64
	siteBusyNS []atomic.Int64
}

// New deploys a server over a built store, wrapping it in a dataset.
func New(st *dsa.Store, cfg Config) (*Server, error) {
	if st == nil {
		return nil, fmt.Errorf("server: nil store") //tcvet:ignore typederr constructor misuse guard; fails startup, never crosses the wire
	}
	ds, err := tcq.OpenDataset(st)
	if err != nil {
		return nil, err
	}
	return NewDataset(ds, cfg)
}

// NewDataset deploys a server over a dataset — the write-capable
// facade handle. The server registers an OnApply subscriber for eager
// per-fragment cache invalidation, so batches applied through ANY
// holder of the dataset (the server's endpoints, a library caller)
// keep the leg cache coherent.
func NewDataset(ds *tcq.Dataset, cfg Config) (*Server, error) {
	if ds == nil {
		return nil, fmt.Errorf("server: nil dataset") //tcvet:ignore typederr constructor misuse guard; fails startup, never crosses the wire
	}
	if cfg.SiteWorkers < 1 {
		cfg.SiteWorkers = 1
	}
	n := ds.Snapshot().Stats().Sites
	s := &Server{
		ds:         ds,
		cache:      newLegCache(cfg.CacheCapacity),
		pools:      newSitePools(n, cfg.SiteWorkers),
		cfg:        cfg,
		start:      time.Now(),
		siteLegs:   make([]atomic.Uint64, n),
		siteBusyNS: make([]atomic.Int64, n),
		cluster:    cfg.Cluster,
		history:    newSnapHistory(epochHistoryDepth),
	}
	s.history.add(ds.Snapshot())
	s.metrics = newServerMetrics(s)
	if s.cluster != nil {
		s.cluster.Register(s.metrics.reg)
	}
	// The server is the facade's runner: every tcq query — the /v1 API,
	// or a library caller holding Facade() — executes through the
	// pooled, leg-cached path below.
	facade, err := ds.Open(tcq.WithRunner(s))
	if err != nil {
		return nil, err
	}
	s.facade = facade
	// Every applied batch invalidates eagerly per changed fragment:
	// entries for rebuilt sites are dropped, entries for structurally
	// shared sites are retagged to the new epoch and keep serving.
	s.unsubscribe = ds.OnApply(func(r tcq.ApplyResult) {
		s.cache.invalidate(r.Stats.SitesRebuilt, r.Epoch)
		// Retain the new generation for peers still gathering legs at
		// recent epochs (the callback runs under the writer gate, so
		// Snapshot() is exactly the generation r announces).
		s.history.add(s.ds.Snapshot())
		s.updates.Add(1)
		s.metrics.observeApply(r)
	})
	return s, nil
}

// Facade returns the server-backed tcq client: the public facade whose
// queries run through the server's worker pools and leg cache.
func (s *Server) Facade() *tcq.Client { return s.facade }

// Dataset returns the deployment's write handle (Apply, Snapshot).
func (s *Server) Dataset() *tcq.Dataset { return s.ds }

// RunPair implements tcq.Runner: it is how the facade executes one
// planned (source, target) pair on this server, against the snapshot
// the request pinned. The engine is already concrete (the facade's
// planner resolved auto), so the pair maps directly onto the store's
// executor with the server's leg executor — or the store's pipelined
// walk for ModePipelined, which is vector-seeded and therefore
// uncacheable.
func (s *Server) RunPair(ctx context.Context, snap *tcq.Snapshot, source, target graph.NodeID, engine dsa.Engine, mode tcq.Mode) (*dsa.Result, tcq.RunStats, error) {
	start := time.Now()
	st := snap.Store()
	var (
		res *dsa.Result
		es  dsa.ExecStats
		err error
	)
	if mode == tcq.ModePipelined {
		res, err = st.QueryPipelinedEngineCtx(ctx, source, target, engine)
	} else {
		var plan *dsa.Plan
		if plan, err = st.NewPlan(source, target); err == nil {
			res, es, err = st.Execute(ctx, plan, engine, serverLegs{s, snap})
		}
	}
	if err != nil {
		s.errors.Add(1)
		return nil, tcq.RunStats{}, err
	}
	switch mode {
	case tcq.ModePipelined:
		s.pipelined.Add(1)
	case tcq.ModeCost:
		s.queries.Add(1)
	default:
		s.connected.Add(1)
	}
	if mode != tcq.ModePipelined {
		for site, w := range res.PerSite {
			s.siteLegs[site].Add(uint64(w.Legs))
			s.siteBusyNS[site].Add(int64(w.Elapsed))
		}
	}
	s.metrics.observeQuery(engine.String(), mode, time.Since(start))
	return res, tcq.RunStats{CacheHits: es.CacheHits, CacheMisses: es.CacheMisses, FallbackSites: es.FallbackSites}, nil
}

// serverLegs is the server's leg executor for one query pinned to
// snap. Locally owned legs queue on their site's persistent worker
// pool and read through the leg cache; in cluster deployments, legs
// of remotely owned sites go to their owners instead (scatter), each
// on its own goroutine — they are I/O-bound waits, and the owner
// serialises the actual work on ITS site pool.
type serverLegs struct {
	s    *Server
	snap *tcq.Snapshot
}

// remote reports whether siteID's legs are owned by another node.
func (l serverLegs) remote(siteID int) bool {
	return l.s.cluster != nil && !l.s.cluster.IsLocal(siteID)
}

// Dispatch implements dsa.LegExecutor.
func (l serverLegs) Dispatch(siteID int, fn func()) {
	if l.remote(siteID) {
		go fn()
		return
	}
	l.s.pools.submit(siteID, fn)
}

// Full implements dsa.LegExecutor. A remote leg whose owner is
// unreachable (down, timed out, or its breaker is open) runs here in
// degraded mode, against the same pinned snapshot — every node builds
// the identical store, so the answer stays correct. Protocol errors
// (epoch skew, bad response) are NOT eligible: falling back would mask
// incoherence.
func (l serverLegs) Full(ctx context.Context, siteID int, entry []graph.NodeID, engine dsa.Engine) (*relation.Relation, tc.Stats, dsa.LegSource, error) {
	s := l.s
	if !l.remote(siteID) {
		full, stats, hit, err := s.executeLegLocal(ctx, l.snap, siteID, entry, engine)
		if err == nil && s.cluster != nil {
			s.cluster.LocalLeg()
		}
		return full, stats, dsa.LegSource{Hit: hit}, err
	}
	// hit reports the OWNER's cache verdict — remote hits count as hits
	// here so the hit rate reflects work actually saved cluster-wide.
	full, stats, hit, err := s.cluster.ExecuteLeg(ctx, siteID, entry, engine.String(), l.snap.Epoch())
	if err == nil || !cluster.FallbackEligible(err) {
		return full, stats, dsa.LegSource{Hit: hit}, err
	}
	full, stats, hit, err = s.executeLegLocal(ctx, l.snap, siteID, entry, engine)
	if err != nil {
		return nil, tc.Stats{}, dsa.LegSource{}, err
	}
	s.cluster.FallbackLeg(siteID)
	return full, stats, dsa.LegSource{Hit: hit, Fallback: true}, nil
}

// Close stops the worker pools and detaches the server from its
// dataset (the OnApply subscription would otherwise keep the server
// and its cache alive and swept for the dataset's lifetime). The
// server must not be used afterwards; the dataset remains usable.
func (s *Server) Close() {
	s.unsubscribe()
	s.pools.close()
}

// executeLegLocal runs the memoizable half of one leg on this node:
// cache lookup keyed (site, entry, engine) at the snapshot's epoch,
// kernel execution on miss. It is shared by the server's leg executor
// and the /v1/leg peer endpoint, so remote and local traffic for a site
// fill and hit the same cache entries.
func (s *Server) executeLegLocal(ctx context.Context, snap *tcq.Snapshot, siteID int, entry []graph.NodeID, engine dsa.Engine) (*relation.Relation, tc.Stats, bool, error) {
	epoch := snap.Epoch()
	key := legKey(siteID, entry, engine)
	if full, stats, ok := s.cache.get(key, epoch); ok {
		return full, stats, true, nil
	}
	full, stats, err := snap.Store().ExecuteLegFullCtx(ctx, siteID, entry, engine)
	if err != nil {
		return nil, tc.Stats{}, false, err
	}
	s.cache.put(key, siteID, epoch, full, stats)
	return full, stats, false, nil
}

// ApplyBatch applies a transactional batch of edge operations through
// the dataset: atomic validation, copy-on-write rebuild of the touched
// fragments, pointer swap, eager cache invalidation — in-flight
// queries keep answering on the snapshots they pinned.
func (s *Server) ApplyBatch(ctx context.Context, b *tcq.Batch) (tcq.ApplyResult, error) {
	res, err := s.ds.Apply(ctx, b)
	if err != nil {
		s.errors.Add(1)
		return res, err
	}
	return res, nil
}

// SiteStats is one site's serving-time work.
type SiteStats struct {
	// Legs is the number of leg tasks the site's workers executed.
	Legs uint64 `json:"legs"`
	// BusyNS is the cumulative wall-clock nanoseconds those tasks took.
	BusyNS int64 `json:"busy_ns"`
}

// Stats is the server-wide counter snapshot served at /stats.
type Stats struct {
	UptimeSeconds    float64 `json:"uptime_seconds"`
	Epoch            uint64  `json:"epoch"`
	Nodes            int     `json:"nodes"`
	Sites            int     `json:"sites"`
	LooselyConnected bool    `json:"loosely_connected"`
	Problem          string  `json:"problem"`

	Queries          uint64 `json:"queries"`
	ConnectedQueries uint64 `json:"connected_queries"`
	PipelinedQueries uint64 `json:"pipelined_queries"`
	Updates          uint64 `json:"updates"`
	Errors           uint64 `json:"errors"`

	Cache CacheStats  `json:"cache"`
	Site  []SiteStats `json:"sites_work"`

	// Cluster describes this node's view of the multi-node deployment:
	// its identity, the membership and the site→node routing table.
	// Absent on single-node deployments.
	Cluster *ClusterStats `json:"cluster,omitempty"`

	// Metrics is the flattened sample snapshot of the Prometheus
	// registry (name{labels} -> value) — the same numbers GET /metrics
	// exposes, embedded so /stats consumers need no second scrape.
	Metrics map[string]float64 `json:"metrics"`
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	snap := s.ds.Snapshot()
	ss := snap.Stats()
	st := Stats{
		UptimeSeconds:    time.Since(s.start).Seconds(),
		Epoch:            snap.Epoch(),
		Nodes:            ss.TotalNodes,
		Sites:            ss.Sites,
		LooselyConnected: ss.LooselyConnected,
		Problem:          ss.Problem.String(),
	}
	st.Queries = s.queries.Load()
	st.ConnectedQueries = s.connected.Load()
	st.PipelinedQueries = s.pipelined.Load()
	st.Updates = s.updates.Load()
	st.Errors = s.errors.Load()
	st.Cache = s.cache.snapshot()
	st.Site = make([]SiteStats, len(s.siteLegs))
	for i := range s.siteLegs {
		st.Site[i] = SiteStats{Legs: s.siteLegs[i].Load(), BusyNS: s.siteBusyNS[i].Load()}
	}
	st.Cluster = s.clusterStats(ss.Sites)
	st.Metrics = s.metrics.reg.Snapshot()
	return st
}
