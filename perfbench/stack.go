package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"fastppv"
	"fastppv/internal/cluster"
	"fastppv/internal/core"
	"fastppv/internal/gen"
	"fastppv/internal/graph"
	"fastppv/internal/querylog"
	"fastppv/internal/server"
)

// stackMode is how the served engine is built.
type stackMode int

const (
	memoryStack  stackMode = iota // fastppv.New + Precompute, in-memory index
	diskStack                     // NewWithDiskIndex, then OpenDiskIndexWithOptions
	clusterStack                  // two partitioned engines behind server.NewRouter
)

// workload is one traffic mix and the stack it runs against.
type workload struct {
	mode stackMode
	// eta is the number of iterations every query asks for; delta is the
	// engine's border-hub threshold (0 keeps the default).
	eta   int
	delta float64
	// cacheBytes is the result-cache budget of the server the load talks to
	// (0 keeps the default size, -1 turns the cache off).
	cacheBytes int64
	queryLog   bool
	// monitor scrapes /metrics and /v1/stats once a second during the run.
	monitor bool
	// hubSources draws sources uniformly over the hubs instead of from one
	// Zipf ranking over all nodes.
	hubSources bool
	// mmap, blockCacheDiv and compactBytes configure the disk index: the
	// block cache holds 1/blockCacheDiv of the index file (0 keeps the
	// default budget) and the update log compacts past compactBytes (0 keeps
	// the default threshold).
	mmap          bool
	blockCacheDiv int64
	compactBytes  int64
	// updateEvery puts one update batch after every updateEvery reads of the
	// request sequence; 0 means a read-only sequence, whose update metrics
	// come from probes of sequential batches at set-up, before any read.
	updateEvery int
	// warmup is the number of reads from the head of the sequence run before
	// measuring, so caches and connections start each run in the same state.
	warmup int
}

var workloads = map[string]workload{
	"zipf-serve": {
		mode: memoryStack, eta: 2, queryLog: true, monitor: true, warmup: 3000,
	},
	"hub-deep-disk": {
		mode: diskStack, eta: 3, delta: 1e-4, cacheBytes: -1, hubSources: true,
		mmap: true, blockCacheDiv: 4, warmup: 200,
	},
	"update-mix": {
		mode: diskStack, eta: 2, queryLog: true, monitor: true,
		compactBytes: 256 << 10, updateEvery: 50, warmup: 3000,
	},
	"cluster-2shard": {
		mode: clusterStack, eta: 2, cacheBytes: -1, warmup: 500,
	},
}

const (
	zipfS     = 1.2
	topK      = 10
	batchSize = 10 // edges per update batch
	batchSeed = 1  // seed of the fixed update-batch stream
	rankSeed  = 2  // seed of the fixed popularity ranking
	auditSeed = 3  // seed of the fixed audit sample
	shards    = 2
)

// stack is one running serving stack.
type stack struct {
	g0   *graph.Graph // the graph as generated, before any update
	opts core.Options
	// engine is the served engine in engine modes; shards are the partition
	// engines in cluster mode.
	engine *core.Engine
	shards []*core.Engine
	// disk is the served disk store (wrapped when tracing); nil otherwise.
	disk      diskIndex
	indexPath string
	dio       fastppv.DiskIndexOptions
	base      string
	offline   core.OfflineStats
	openDur   time.Duration
	// closeIndex closes the served disk store; nil once closed.
	closeIndex func() error
	closers    []func() error
}

// graphFor generates the workload graph. It does not depend on the run's
// seed: every run serves the same graph (the generator's default seed), so
// runs with different seeds differ only in their request sequence and audit
// sample, not in the cost of the graph itself.
func graphFor(cfg runConfig) (*graph.Graph, error) {
	gc := gen.DefaultSocialConfig()
	gc.Nodes = cfg.nodes
	return gen.SocialGraph(gc)
}

// setup builds one stack in its own directory and returns it with the time
// it took: graph generation, precompute, index write and open, and the
// servers coming up. rec, when non-nil, is installed around every index
// store the stack serves from.
func setup(cfg runConfig, w workload, dir string, rec *recorder) (*stack, time.Duration, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	g, err := graphFor(cfg)
	if err != nil {
		return nil, 0, err
	}
	st := &stack{g0: g, opts: core.Options{NumHubs: cfg.hubs, Delta: w.delta}}
	if err := st.build(w, dir, rec); err != nil {
		st.close()
		return nil, 0, err
	}
	return st, time.Since(start), nil
}

func (st *stack) build(w workload, dir string, rec *recorder) error {
	switch w.mode {
	case memoryStack:
		e, err := fastppv.New(st.g0, st.opts)
		if err != nil {
			return err
		}
		if err := e.Precompute(); err != nil {
			return err
		}
		st.offline = e.OfflineStats()
		if st.engine, err = traced(e, rec); err != nil {
			return err
		}
	case diskStack:
		if err := st.buildDisk(w, dir, rec); err != nil {
			return err
		}
	case clusterStack:
		return st.buildCluster(w, rec)
	}
	scfg := server.Config{CacheBytes: w.cacheBytes}
	if rec != nil {
		scfg.TraceSampleEvery = 1
	}
	if w.queryLog {
		ql, err := querylog.Open(filepath.Join(dir, "queries.qlog"), querylog.Options{}, nil)
		if err != nil {
			return err
		}
		st.closers = append(st.closers, ql.Close)
		scfg.QueryLog = ql
	}
	srv, err := server.New(st.engine, scfg)
	if err != nil {
		return err
	}
	st.base, err = st.listen(srv)
	return err
}

func (st *stack) buildDisk(w workload, dir string, rec *recorder) error {
	st.indexPath = filepath.Join(dir, "index.ppv")
	build, closeBuild, err := fastppv.NewWithDiskIndex(st.g0, st.opts, st.indexPath)
	if err != nil {
		return err
	}
	if err := build.Precompute(); err != nil {
		closeBuild()
		return err
	}
	st.offline = build.OfflineStats()
	if err := closeBuild(); err != nil {
		return err
	}

	openStart := time.Now()
	st.dio = fastppv.DiskIndexOptions{Mmap: w.mmap, CompactThresholdBytes: w.compactBytes}
	if w.blockCacheDiv > 0 {
		fi, err := os.Stat(st.indexPath)
		if err != nil {
			return err
		}
		st.dio.BlockCacheBytes = fi.Size() / w.blockCacheDiv
	}
	e, closeIdx, err := fastppv.OpenDiskIndexWithOptions(st.g0, st.opts, st.indexPath, st.dio)
	if err != nil {
		return err
	}
	st.closeIndex = closeIdx
	st.openDur = time.Since(openStart)
	if st.engine, err = traced(e, rec); err != nil {
		return err
	}
	d, ok := st.engine.Index().(diskIndex)
	if !ok {
		return errors.New("disk index store lacks the disk store interfaces")
	}
	st.disk = d
	return nil
}

func (st *stack) buildCluster(w workload, rec *recorder) error {
	targets := make([]string, shards)
	for i := 0; i < shards; i++ {
		opts := st.opts
		opts.Partition = core.Partition{Shard: i, Shards: shards}
		e, err := fastppv.New(st.g0, opts)
		if err != nil {
			return err
		}
		if err := e.Precompute(); err != nil {
			return err
		}
		off := e.OfflineStats()
		st.offline.Hubs += off.Hubs
		st.offline.HubSelection += off.HubSelection
		st.offline.PrimePPV += off.PrimePPV
		st.offline.IndexBytes += off.IndexBytes
		if e, err = traced(e, rec); err != nil {
			return err
		}
		st.shards = append(st.shards, e)
		srv, err := server.New(e, server.Config{CacheBytes: -1})
		if err != nil {
			return err
		}
		if targets[i], err = st.listen(srv); err != nil {
			return err
		}
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Targets: targets})
	if err != nil {
		return err
	}
	st.closers = append(st.closers, func() error { rt.Close(); return nil })
	scfg := server.Config{CacheBytes: w.cacheBytes}
	if rec != nil {
		scfg.TraceSampleEvery = 1
	}
	srv, err := server.NewRouter(rt, scfg)
	if err != nil {
		return err
	}
	st.base, err = st.listen(srv)
	return err
}

// traced returns e unchanged when rec is nil, and otherwise an engine serving
// the same index through the recording wrapper.
func traced(e *core.Engine, rec *recorder) (*core.Engine, error) {
	if rec == nil {
		return e, nil
	}
	inner, ok := e.Index().(core.IndexStore)
	if !ok {
		return nil, errors.New("engine index is not an IndexStore")
	}
	ws, err := wrapStore(inner, rec)
	if err != nil {
		return nil, err
	}
	return core.NewServingEngine(e.Graph(), ws, e.Options())
}

// listen serves srv on a loopback port until the stack closes.
func (st *stack) listen(srv *server.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	st.closers = append(st.closers, func() error {
		srv.CloseStreams()
		err := hs.Close()
		<-done
		return err
	})
	return "http://" + ln.Addr().String(), nil
}

// closeServing stops the servers and closes the served disk store, keeping
// the files for a reopen.
func (st *stack) closeServing() error {
	var errs []error
	for i := len(st.closers) - 1; i >= 0; i-- {
		if err := st.closers[i](); err != nil {
			errs = append(errs, err)
		}
	}
	st.closers = nil
	if st.closeIndex != nil {
		if err := st.closeIndex(); err != nil {
			errs = append(errs, fmt.Errorf("closing the disk index: %w", err))
		}
		st.closeIndex = nil
	}
	return errors.Join(errs...)
}

func (st *stack) close() {
	if err := st.closeServing(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: closing stack:", err)
	}
}

// hubList returns the full hub set in ascending order.
func (st *stack) hubList() []graph.NodeID {
	if st.engine != nil {
		return st.engine.Hubs().Hubs()
	}
	return st.shards[0].Hubs().Hubs()
}

// graph returns the graph the stack serves now (after applied updates).
func (st *stack) graph() *graph.Graph {
	if st.engine != nil {
		return st.engine.Graph()
	}
	return st.shards[0].Graph()
}
