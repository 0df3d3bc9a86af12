package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/pkg/tcq"
)

// config is one invocation of the benchmark.
type config struct {
	wl        workload
	shape     shape
	seed      int64
	seconds   time.Duration // the timed window, and the traced replay
	trace     bool
	setups    int    // set-ups per run; setup_s is their median
	spansPath string // where the traced run writes its spans
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// report is a run's result: the metrics of the requested mode plus the
// operation tally.
type report struct {
	metrics           []metric
	samples           []metric // sample counts, printed beside the metrics
	attempted, failed int
	errs              []string
}

// tally counts operations and checks every read against the oracle.
type tally struct {
	orc               *oracle
	attempted, failed int
	errs              []string // the first few failures, for the log
}

// add checks one outcome: transport and status errors fail it, and a
// read must also match the oracle.
func (t *tally) add(o outcome) {
	err := o.err
	if err == nil && !o.op.write {
		err = t.orc.check(o.ans)
	}
	t.check(err)
}

// check counts one attempted operation or check, failed when err is
// non-nil.
func (t *tally) check(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

// run executes one benchmark invocation.
func run(ctx context.Context, cfg config) (*report, error) {
	fr, err := generate(cfg.shape)
	if err != nil {
		return nil, err
	}
	st := newStream(cfg.wl, fr, cfg.seed)
	t := &tally{orc: newOracle(fr.Base())}

	// Set up several times and keep the last deployment; setup_s is
	// the median. Each set-up generates, fragments, builds, boots and
	// warms the cache where the workload has one.
	//
	// Read-only workloads measure writes outside the read window, on
	// every set-up's deployment in turn — the discarded ones just before
	// they are closed, the kept one after the window — so the write
	// figures sample the machine at several moments and never disturb
	// the reads. Writes come from one writer pinned to node 0: concurrent
	// writers through different cluster nodes can interleave fan-outs and
	// fail with epoch_skew, and the README prescribes one writer for
	// clusters.
	readOnly := cfg.wl.writeShare == 0
	var chunks [][]op
	if readOnly {
		for i := 0; i < cfg.setups; i++ {
			chunks = append(chunks, st.writes[i*len(st.writes)/cfg.setups:(i+1)*len(st.writes)/cfg.setups])
		}
	}
	var setups []time.Duration
	var dep *deployment
	var fl *fleet
	var checked, writes []outcome // outcomes checked but not timed as reads
	for i := 0; i < cfg.setups; i++ {
		if dep != nil {
			if err := dep.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var warm []outcome
		dep, fl, warm, err = setUp(ctx, cfg.wl, cfg.shape, st)
		setups = append(setups, time.Since(t0))
		if err != nil {
			return nil, err
		}
		checked = append(checked, warm...)
		if readOnly && i < cfg.setups-1 {
			writes = append(writes, writePhase(ctx, fl.urls, chunks[i])...)
		}
	}
	defer func() {
		if dep != nil {
			dep.close()
		}
	}()
	a := newAPI(fl.urls)
	defer a.close()

	// Every window starts from a collected heap, not from whatever
	// garbage the set-ups left. The live heap is taken here, with the
	// cache warm: after grid-mixed's window it swings by ±15% from run to
	// run with the timing of writes and invalidations.
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB := float64(mem.HeapAlloc) / (1 << 20)
	s0, err := fetchFleetStats(fl.urls)
	if err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	window, wall := benchmark(loop{clients: clients, duration: cfg.seconds}, func(i int) outcome {
		return a.do(ctx, st.ops[i%len(st.ops)])
	})
	rt1 := readRuntime()
	s1, err := fetchFleetStats(fl.urls)
	if err != nil {
		return nil, err
	}

	// dw is the servers' counter change over the kept deployment's
	// writes, and nw the number of those writes.
	dw, nw, last := diffStats(s0, s1), 0, s1
	if readOnly {
		final := writePhase(ctx, fl.urls, chunks[len(chunks)-1])
		writes = append(writes, final...)
		if last, err = fetchFleetStats(fl.urls); err != nil {
			return nil, err
		}
		dw, nw = diffStats(s1, last), len(final)
	}
	var readLat, writeLat []time.Duration
	var respBytes int
	for _, o := range checked {
		t.add(o)
	}
	for _, o := range window {
		t.add(o)
		if o.op.write {
			writeLat = append(writeLat, o.lat)
			nw++
		} else {
			readLat = append(readLat, o.lat)
			respBytes += o.bytes
		}
	}
	for _, o := range writes {
		t.add(o)
		writeLat = append(writeLat, o.lat)
	}
	// A leg its coordinator executed because the owner was unreachable
	// means the run measured degraded mode.
	fallback := diffStats(s0, last).fallback
	if cfg.wl.nodes > 1 {
		var err error
		if fallback > 0 {
			err = fmt.Errorf("%g legs fell back to local execution: the cluster ran degraded", fallback)
		}
		t.check(err)
	}
	if cfg.wl.persistent {
		durable(ctx, dep, window, st, t)
	}
	err = dep.close()
	dep = nil
	if err != nil {
		return nil, err
	}

	rep := &report{samples: []metric{
		{"read_samples", "count", float64(len(readLat))},
		{"write_samples", "count", float64(len(writeLat))},
	}}
	readP50 := quantile(readLat, 0.50)
	if !cfg.trace {
		rep.metrics = []metric{
			{"read_p50_ms", "ms", ms(readP50)},
			{"read_p95_ms", "ms", ms(quantile(readLat, 0.95))},
			{"read_qps", "1/s", float64(len(readLat)) / wall.Seconds()},
			{"write_p50_ms", "ms", ms(quantile(writeLat, 0.50))},
			{"write_p90_ms", "ms", ms(quantile(writeLat, 0.90))},
			{"success_rate", "ratio", 1 - ratio(float64(t.failed), float64(t.attempted))},
			{"setup_s", "s", median(setups).Seconds()},
			{"heap_live_mb", "MiB", heapMB},
		}
		rep.attempted, rep.failed, rep.errs = t.attempted, t.failed, t.errs
		return rep, nil
	}

	reads := float64(max(len(readLat), 1))
	d := diffStats(s0, s1)
	rep.metrics = []metric{
		{"http.resp_bytes_per_read", "bytes", float64(respBytes) / reads},
		{"server.cache_hit_ratio", "ratio", ratio(d.hits, d.hits+d.misses)},
		{"server.cache_evictions_per_read", "count", d.evictions / reads},
		{"server.cache_invalidated_per_write", "count", dw.invalidated / float64(max(nw, 1))},
		{"server.cache_retained_per_write", "count", dw.retained / float64(max(nw, 1))},
		{"server.site_busy_frac_max", "ratio", d.busiestSiteNS / float64(wall)},
		{"cluster.remote_legs_per_read", "count", d.fanout / reads},
		{"cluster.fallback_legs", "count", fallback},
		{"runtime.alloc_kb_per_read", "KiB", (rt1.allocBytes - rt0.allocBytes) / 1024 / reads},
		{"runtime.gc_cpu_frac", "ratio", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)},
		{"runtime.gc_cycles_per_read", "count", (rt1.gcCycles - rt0.gcCycles) / reads},
	}
	traced, err := runTraced(ctx, cfg, st, t, readP50)
	if err != nil {
		return nil, err
	}
	rep.metrics = append(rep.metrics, traced...)
	rep.attempted, rep.failed, rep.errs = t.attempted, t.failed, t.errs
	return rep, nil
}

// setUp deploys the workload, boots one fleet and runs the warm-up
// pass over the pool (its outcomes are checked later, outside set-up).
func setUp(ctx context.Context, wl workload, sh shape, st *stream) (*deployment, *fleet, []outcome, error) {
	dep, err := deploy(wl, sh)
	if err != nil {
		return nil, nil, nil, err
	}
	fl, err := dep.boot()
	if err != nil {
		return nil, nil, nil, errors.Join(err, dep.close())
	}
	a := newAPI(fl.urls)
	defer a.close()
	warm, _ := benchmark(loop{clients: clients, ops: len(st.pool)}, func(i int) outcome {
		return a.do(ctx, st.pool[i])
	})
	return dep, fl, warm, nil
}

// writePhase sends ops one after another from a single writer.
func writePhase(ctx context.Context, urls []string, ops []op) []outcome {
	a := newAPI(urls)
	defer a.close()
	outs, _ := benchmark(loop{clients: 1, ops: len(ops)}, func(i int) outcome { return a.do(ctx, ops[i]) })
	return outs
}

// durable closes the persistent deployment, reopens its directory and
// checks that recovery lands on the last acknowledged epoch and still
// answers a sample of reads correctly.
func durable(ctx context.Context, dep *deployment, window []outcome, st *stream, t *tally) {
	var acked uint64
	for _, o := range window {
		if o.op.write && o.err == nil {
			acked = max(acked, o.epoch)
		}
	}
	if acked == 0 && len(dep.datasets) > 0 {
		acked = dep.datasets[0].Epoch()
	}
	if err := dep.stop(); err != nil {
		t.check(fmt.Errorf("durability: close: %w", err))
		return
	}
	ds, info, err := tcq.OpenStore(dep.dir, tcq.PersistOptions{})
	if err != nil {
		t.check(fmt.Errorf("durability: reopen: %w", err))
		return
	}
	defer ds.Close()
	if info.Epoch != acked {
		t.check(fmt.Errorf("durability: recovered epoch %d, last acknowledged %d", info.Epoch, acked))
	} else {
		t.check(nil)
	}
	c, err := ds.Open()
	if err != nil {
		t.check(fmt.Errorf("durability: open client: %w", err))
		return
	}
	for _, o := range st.pool[:min(16, len(st.pool))] {
		res, err := c.Query(ctx, tcq.Request{Sources: []int{o.src}, Targets: []int{o.dst}, Mode: tcq.ModeCost})
		t.add(facadeOutcome(o, res, err))
	}
}

// runtimeSample is the Go runtime's cumulative counters at one moment.
type runtimeSample struct {
	allocBytes, gcCycles, gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return math.NaN()
	}
	return runtimeSample{allocBytes: val(s[0].Value), gcCycles: val(s[1].Value), gcCPU: val(s[2].Value), totalCPU: val(s[3].Value)}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
