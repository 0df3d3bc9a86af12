package main

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/fragment"
	"repro/internal/fragment/linear"
	"repro/internal/gen"
	"repro/internal/server"
	"repro/pkg/tcq"
)

// generate builds the shared graph and cuts it into linear fragments.
func generate(sh shape) (*fragment.Fragmentation, error) {
	g, err := gen.Grid(gen.GridConfig{Width: sh.side, Height: sh.side, DiagonalProb: gridDiagProb, Seed: gridSeed})
	if err != nil {
		return nil, err
	}
	res, err := linear.Fragment(g, linear.Options{NumFragments: sh.frags})
	if err != nil {
		return nil, err
	}
	return res.Fragmentation, nil
}

// deployment is one system under test: a dataset per node, and one or
// more fleets of servers booted over those datasets.
type deployment struct {
	wl       workload
	datasets []*tcq.Dataset
	dir      string // the store directory of a persistent deployment
	fleets   []*fleet
}

// fleet is one set of servers, one per node, each behind a loopback
// HTTP listener; with more than one node they form a cluster.
type fleet struct {
	servers []*server.Server
	https   []*httptest.Server
	urls    []string
	coords  []*cluster.Coordinator // nil on a single node
}

// deploy generates the graph and builds every node's dataset through
// the public constructors: gen.Grid → linear.Fragment → tcq.NewDataset,
// plus tcq.InitStore and tcq.OpenStore for a persistent workload.
func deploy(wl workload, sh shape) (*deployment, error) {
	d := &deployment{wl: wl}
	for i := 0; i < wl.nodes; i++ {
		fr, err := generate(sh)
		if err != nil {
			return nil, errors.Join(err, d.close())
		}
		ds, err := tcq.NewDataset(fr, tcq.BuildOptions{})
		if err != nil {
			return nil, errors.Join(err, d.close())
		}
		if wl.persistent {
			if ds, err = d.persist(ds); err != nil {
				return nil, errors.Join(err, d.close())
			}
		}
		d.datasets = append(d.datasets, ds)
	}
	return d, nil
}

// persist seeds a fresh store directory with ds and reopens it as a
// journaled dataset with the default checkpoint cadence.
func (d *deployment) persist(ds *tcq.Dataset) (*tcq.Dataset, error) {
	dir, err := os.MkdirTemp("", "perfbench-store-")
	if err != nil {
		return nil, err
	}
	d.dir = dir
	if err := tcq.InitStore(dir, ds.Snapshot()); err != nil {
		return nil, err
	}
	pds, _, err := tcq.OpenStore(dir, tcq.PersistOptions{})
	return pds, err
}

// boot starts a fleet over the deployment's datasets. Two fleets over
// the same datasets see the same data and writes but keep separate leg
// caches.
func (d *deployment) boot() (*fleet, error) {
	n := len(d.datasets)
	f := &fleet{}
	d.fleets = append(d.fleets, f)
	// Listeners start before the servers exist, because peer URLs feed
	// the coordinators the servers are built with.
	handlers := make([]*delegatingHandler, n)
	var peers []cluster.Node
	for i := 0; i < n; i++ {
		handlers[i] = &delegatingHandler{}
		ts := httptest.NewServer(handlers[i])
		f.https = append(f.https, ts)
		f.urls = append(f.urls, ts.URL)
		peers = append(peers, cluster.Node{ID: fmt.Sprintf("n%d", i), URL: ts.URL})
	}
	for i, ds := range d.datasets {
		cfg := server.Config{CacheCapacity: d.wl.cache}
		if n > 1 {
			coord, err := cluster.New(cluster.Config{NodeID: peers[i].ID, Peers: peers})
			if err != nil {
				return nil, err
			}
			cfg.Cluster = coord
			f.coords = append(f.coords, coord)
		}
		srv, err := server.NewDataset(ds, cfg)
		if err != nil {
			return nil, err
		}
		f.servers = append(f.servers, srv)
		handlers[i].set(srv.Handler())
	}
	return f, nil
}

func (f *fleet) close() {
	for _, ts := range f.https {
		ts.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
}

// stop closes every fleet and dataset but keeps the store directory.
func (d *deployment) stop() error {
	for _, f := range d.fleets {
		f.close()
	}
	d.fleets = nil
	var errs []error
	for _, ds := range d.datasets {
		errs = append(errs, ds.Close())
	}
	d.datasets = nil
	return errors.Join(errs...)
}

// close stops the deployment and removes its store directory.
func (d *deployment) close() error {
	err := d.stop()
	if d.dir != "" {
		err = errors.Join(err, os.RemoveAll(d.dir))
	}
	return err
}

// delegatingHandler lets a listener start before the server it routes
// to exists.
type delegatingHandler struct {
	h atomic.Pointer[http.Handler]
}

func (d *delegatingHandler) set(h http.Handler) { d.h.Store(&h) }

func (d *delegatingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := d.h.Load()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	(*h).ServeHTTP(w, r)
}
