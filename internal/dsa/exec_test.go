package dsa

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/relation"
	"repro/internal/tc"
)

// inlineLegs is this file's own leg executor: every leg runs
// synchronously on the dispatching goroutine, straight from the
// store's kernels — the sequential reference the concurrent executors
// must agree with.
type inlineLegs struct{ st *Store }

func (inlineLegs) Dispatch(_ int, fn func()) { fn() }

func (l inlineLegs) Full(ctx context.Context, siteID int, entry []graph.NodeID, engine Engine) (*relation.Relation, tc.Stats, LegSource, error) {
	full, stats, err := l.st.ExecuteLegFullCtx(ctx, siteID, entry, engine)
	return full, stats, LegSource{}, err
}

// namedLegs is one leg executor under test.
type namedLegs struct {
	name string
	legs LegExecutor
}

// seams lists the leg executors every executor-level property runs
// under: the inline reference and the library default. The serving
// layer's executor is covered by the server package's tests.
func seams(st *Store) []namedLegs {
	return []namedLegs{{"inline", inlineLegs{st}}, {"default", st.LocalLegs()}}
}

// runPair plans source→target and executes the plan through legs.
func runPair(st *Store, legs LegExecutor, source, target graph.NodeID, engine Engine) (*Result, error) {
	plan, err := st.NewPlan(source, target)
	if err != nil {
		return nil, err
	}
	res, _, err := st.Execute(context.Background(), plan, engine, legs)
	return res, err
}

// query answers a single pair through the library default executor.
func query(st *Store, source, target graph.NodeID, engine Engine) (*Result, error) {
	return runPair(st, st.LocalLegs(), source, target, engine)
}

// connected is query's reachability bit.
func connected(st *Store, source, target graph.NodeID, engine Engine) (bool, error) {
	res, err := query(st, source, target, engine)
	if err != nil {
		return false, err
	}
	return res.Reachable, nil
}

// fakeLegs is a scriptable leg executor for the Execute contract: it
// counts dispatches and Full calls per site, can fail or hold back
// legs of chosen sites, and labels each leg's source.
type fakeLegs struct {
	st       *Store
	gate     chan struct{} // when non-nil, dispatched legs wait for it to close
	fail     map[int]error // site → error its legs return
	hold     chan struct{} // when non-nil, non-failing Full calls wait for it
	source   func(siteID int) LegSource
	mu       sync.Mutex
	dispatch map[int]int
	full     atomic.Int64
	finished atomic.Int64
}

func (f *fakeLegs) Dispatch(siteID int, fn func()) {
	f.mu.Lock()
	f.dispatch[siteID]++
	f.mu.Unlock()
	go func() {
		if f.gate != nil {
			<-f.gate
		}
		fn()
	}()
}

func (f *fakeLegs) Full(ctx context.Context, siteID int, entry []graph.NodeID, engine Engine) (*relation.Relation, tc.Stats, LegSource, error) {
	f.full.Add(1)
	defer f.finished.Add(1)
	if err := f.fail[siteID]; err != nil {
		return nil, tc.Stats{}, LegSource{}, err
	}
	if f.hold != nil {
		<-f.hold
	}
	full, stats, err := f.st.ExecuteLegFullCtx(ctx, siteID, entry, engine)
	var src LegSource
	if f.source != nil {
		src = f.source(siteID)
	}
	return full, stats, src, err
}

// TestExecuteLegSeamContract pins what Execute promises every leg
// executor: each leg dispatched exactly once on its own site, the
// first leg error surfacing typed only after every dispatched leg has
// returned, canceled queries turning queued legs into ErrCanceled
// no-ops, and ExecStats tallying the sources Full reported.
func TestExecuteLegSeamContract(t *testing.T) {
	st, _ := pathStore(t)
	plan, err := st.NewPlan(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Legs) < 3 {
		t.Fatalf("plan has %d legs, want a 3-site chain", len(plan.Legs))
	}
	perSite := map[int]int{}
	for _, l := range plan.Legs {
		perSite[l.SiteID]++
	}
	newFake := func() *fakeLegs { return &fakeLegs{st: st, dispatch: map[int]int{}} }

	t.Run("dispatch_once_and_stats", func(t *testing.T) {
		f := newFake()
		f.source = func(site int) LegSource { return LegSource{Hit: site == 0, Fallback: site == 2} }
		res, es, err := st.Execute(context.Background(), plan, EngineDijkstra, f)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(f.dispatch, perSite) {
			t.Errorf("dispatches per site = %v, want %v", f.dispatch, perSite)
		}
		if got := int(f.full.Load()); got != len(plan.Legs) {
			t.Errorf("Full called %d times for %d legs", got, len(plan.Legs))
		}
		if es.CacheHits != perSite[0] || es.CacheMisses != len(plan.Legs)-perSite[0] {
			t.Errorf("hits/misses = %d/%d, want %d/%d", es.CacheHits, es.CacheMisses, perSite[0], len(plan.Legs)-perSite[0])
		}
		if want := []int{2}; !reflect.DeepEqual(es.FallbackSites, want) {
			t.Errorf("fallback sites = %v, want %v", es.FallbackSites, want)
		}
		ref, err := runPair(st, inlineLegs{st}, 0, 8, EngineDijkstra)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost != ref.Cost || res.TuplesShipped != ref.TuplesShipped || len(res.PerSite) != len(ref.PerSite) {
			t.Errorf("fake-seam result (cost %v, %d tuples, %d sites) differs from inline (cost %v, %d tuples, %d sites)",
				res.Cost, res.TuplesShipped, len(res.PerSite), ref.Cost, ref.TuplesShipped, len(ref.PerSite))
		}
	})

	t.Run("first_error_after_all_legs", func(t *testing.T) {
		errLeg := errors.New("leg refused")
		f := newFake()
		f.fail = map[int]error{1: fmt.Errorf("site 1: %w", errLeg)}
		f.hold = make(chan struct{})
		type out struct {
			err      error
			finished int64
		}
		done := make(chan out, 1)
		go func() {
			_, _, err := st.Execute(context.Background(), plan, EngineDijkstra, f)
			done <- out{err, f.finished.Load()}
		}()
		select {
		case o := <-done:
			t.Fatalf("Execute returned (%v) while %d legs were still running", o.err, len(plan.Legs)-int(o.finished))
		case <-time.After(50 * time.Millisecond):
		}
		close(f.hold)
		o := <-done
		if !errors.Is(o.err, errLeg) {
			t.Fatalf("err = %v, want the failing leg's error", o.err)
		}
		if o.finished != int64(len(plan.Legs)) {
			t.Errorf("Execute returned after %d of %d legs finished", o.finished, len(plan.Legs))
		}
	})

	t.Run("canceled_legs_are_noops", func(t *testing.T) {
		f := newFake()
		f.gate = make(chan struct{})
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, _, err := st.Execute(ctx, plan, EngineDijkstra, f)
			done <- err
		}()
		cancel()
		close(f.gate)
		err := <-done
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
		}
		if n := f.full.Load(); n != 0 {
			t.Errorf("canceled query still ran %d legs", n)
		}
	})
}

// TestExecuteSeamsAgree runs one multi-site query under every leg
// executor and every engine: the answers and the per-site accounting
// must not depend on where the legs ran.
func TestExecuteSeamsAgree(t *testing.T) {
	st, _ := pathStore(t)
	for _, engine := range []Engine{EngineDijkstra, EngineSemiNaive, EngineBitset, EngineDense} {
		var ref *Result
		for _, s := range seams(st) {
			res, err := runPair(st, s.legs, 0, 8, engine)
			if err != nil {
				t.Fatalf("%s/%v: %v", s.name, engine, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if res.Reachable != ref.Reachable || res.Cost != ref.Cost || res.MessagesSent != ref.MessagesSent ||
				res.TuplesShipped != ref.TuplesShipped || len(res.PerSite) != len(ref.PerSite) {
				t.Errorf("%s/%v: %+v differs from %s: %+v", s.name, engine, res, seams(st)[0].name, ref)
			}
		}
	}
}

// pipelined answers a single pair with the pipelined chain walk.
func pipelined(st *Store, source, target graph.NodeID, engine Engine) (*Result, error) {
	return st.QueryPipelinedEngineCtx(context.Background(), source, target, engine)
}
