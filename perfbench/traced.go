package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"fastppv/internal/core"
	"fastppv/internal/graph"
	"fastppv/internal/hub"
	"fastppv/internal/ppvindex"
	"fastppv/internal/prime"
)

const (
	// primeSample caps how many distinct non-hub sources the prime push is
	// re-run on after the measured part.
	primeSample = 200
	// rebuildSample caps how many applied batches are replayed for
	// graph.rebuild_ms.
	rebuildSample = 10
	// scrapes is the number of /v1/stats and /metrics requests timed.
	scrapes = 10
)

// retainedTrace is the part of GET /v1/debug/trace/{id} the benchmark reads.
type retainedTrace struct {
	Mode       string  `json:"mode"`
	DurationMS float64 `json:"duration_ms"`
	Iterations []struct {
		FrontierSize int     `json:"frontier_size"`
		HubsExpanded int     `json:"hubs_expanded"`
		HubsSkipped  int     `json:"hubs_skipped"`
		DurationMS   float64 `json:"duration_ms"`
		Legs         []struct {
			DurationMS float64 `json:"duration_ms"`
		} `json:"legs"`
	} `json:"iterations"`
}

// statsView is the part of GET /v1/stats the benchmark reads.
type statsView struct {
	BlockCache *struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"block_cache"`
	Durability *struct {
		Compactions int64 `json:"compactions"`
	} `json:"durability"`
	QueryLog *struct {
		Appended    int64 `json:"appended"`
		ActiveBytes int64 `json:"active_bytes"`
	} `json:"query_log"`
	Cluster *struct {
		SpeculationsSent  int64 `json:"speculations_sent"`
		SpeculationHits   int64 `json:"speculation_hits"`
		WireBytesSent     int64 `json:"wire_bytes_sent"`
		WireBytesReceived int64 `json:"wire_bytes_received"`
		Shards            []struct {
			Retries   int64 `json:"retries"`
			Transport struct {
				Reconnects       int64 `json:"reconnects"`
				FallbackRequests int64 `json:"fallback_requests"`
			} `json:"transport"`
		} `json:"shards"`
	} `json:"cluster"`
}

// counters flattens the cumulative counters of a stats snapshot.
func (v *statsView) counters() map[string]float64 {
	m := map[string]float64{}
	if bc := v.BlockCache; bc != nil {
		m["block_hits"], m["block_misses"], m["block_evictions"] = float64(bc.Hits), float64(bc.Misses), float64(bc.Evictions)
	}
	if d := v.Durability; d != nil {
		m["compactions"] = float64(d.Compactions)
	}
	if q := v.QueryLog; q != nil {
		m["qlog_records"], m["qlog_bytes"] = float64(q.Appended), float64(q.ActiveBytes)
	}
	if c := v.Cluster; c != nil {
		m["spec_sent"], m["spec_hits"] = float64(c.SpeculationsSent), float64(c.SpeculationHits)
		m["wire_bytes"] = float64(c.WireBytesSent + c.WireBytesReceived)
		for _, s := range c.Shards {
			m["retries"] += float64(s.Retries)
			m["reconnects"] += float64(s.Transport.Reconnects)
			m["fallbacks"] += float64(s.Transport.FallbackRequests)
		}
	}
	return m
}

func (b *bench) counters() (map[string]float64, error) {
	body, _, err := b.c.get("/v1/stats")
	if err != nil {
		return nil, err
	}
	var v statsView
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return v.counters(), nil
}

// traceEveryOther records spans around every even-indexed request and pulls
// the program's own iteration trace of each such request that computed its
// answer; odd-indexed requests run untraced, for the tracing overhead.
func (b *bench) traceEveryOther(i int64, s *sample, do func() error) error {
	if i%2 != 0 {
		return do()
	}
	s.traced = true
	b.rec.on.Store(true)
	err := do()
	b.rec.on.Store(false)
	if err != nil || s.update || s.traceID == "" || (s.cache != cacheMiss && s.cache != cacheBypass) {
		return err
	}
	body, _, err := b.c.get("/v1/debug/trace/" + s.traceID)
	if err == nil {
		var tr retainedTrace
		if err = json.Unmarshal(body, &tr); err == nil {
			s.trace = &tr
			return nil
		}
	}
	s.ok = false
	return fmt.Errorf("fetching trace %s: %w", s.traceID, err)
}

// runTraced measures the per-layer metrics. Half of the measured time runs
// the end-to-end closed loop (for hit and coalescing shares and the
// program's own counters); the other half continues the same sequence with
// one caller, recording store spans around every other request, so every
// span falls inside exactly one request.
func (b *bench) runTraced() (*report, error) {
	if _, err := b.setupAll(1); err != nil {
		return nil, err
	}
	from, err := b.prepare()
	if err != nil {
		return nil, err
	}
	before, err := b.counters()
	if err != nil {
		return nil, err
	}
	half := b.seconds() / 2
	la, mona := b.measure(from, b.callers(), half, nil)
	lb, monb := b.measure(la.next, 1, half, b.traceEveryOther)
	logErrors("request", append(la.errs, lb.errs...))
	after, err := b.counters()
	if err != nil {
		return nil, err
	}
	var t tally
	t.samples(la.samples)
	t.samples(lb.samples)
	t.samples(b.probes)
	t.monitor(mona)
	t.monitor(monb)
	updates := append(append([]sample(nil), la.samples...), lb.samples...)
	if b.w.updateEvery == 0 {
		updates = b.probes
	}
	statsMS, scrapeMS, err := b.timeScrapes()
	if err != nil {
		return nil, err
	}
	spans := b.rec.take()
	aud, err := b.audits()
	if err != nil {
		return nil, err
	}
	logErrors("audit", aud.failures)
	t.audit(aud)
	compactMS, err := b.timeCompaction()
	if err != nil {
		return nil, err
	}

	rep := &report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	delta := func(k string) float64 { return after[k] - before[k] }
	// A compaction swaps in a fresh block cache whose counters start at
	// zero; the block-cache shares then cover the time since the last one.
	blockDelta := delta
	if delta("compactions") > 0 {
		blockDelta = func(k string) float64 { return after[k] }
	}

	// internal/server
	var hits, coalesced, queriesA float64
	for _, s := range la.samples {
		if !s.update && s.ok {
			queriesA++
			switch s.cache {
			case cacheHit:
				hits++
			case cacheCoalesced:
				coalesced++
			}
		}
	}
	var hitLat, overhead, tracedLat, untracedLat, respBytes []float64
	var computed float64
	for _, s := range append(append([]sample(nil), la.samples...), lb.samples...) {
		if s.update || !s.ok {
			continue
		}
		respBytes = append(respBytes, float64(s.bytes))
		if s.cache != cacheHit {
			computed++
		}
	}
	for _, s := range lb.samples {
		if s.update || !s.ok {
			continue
		}
		us := float64(s.latency()) / 1e3
		if s.traced {
			tracedLat = append(tracedLat, us)
		} else {
			untracedLat = append(untracedLat, us)
		}
		if s.cache == cacheHit {
			hitLat = append(hitLat, us)
		} else {
			overhead = append(overhead, us-s.computeMS*1e3)
		}
	}
	var invalidated, updMS, affected []float64
	for _, s := range updates {
		if s.update && s.ok {
			invalidated = append(invalidated, float64(s.invalidated))
			updMS = append(updMS, s.computeMS)
			affected = append(affected, float64(s.affected))
		}
	}
	rep.set("server.hit_frac", "fraction", ratio(hits, queriesA))
	rep.set("server.coalesced_frac", "fraction", ratio(coalesced, queriesA))
	rep.set("server.hit_latency_p50_us", "us", median(hitLat))
	rep.set("server.overhead_p50_us", "us", median(overhead))
	rep.set("server.response_bytes", "bytes", mean(respBytes))
	rep.set("server.invalidated_per_update", "count", mean(invalidated))
	rep.set("server.stats_ms", "ms", statsMS)
	rep.set("telemetry.scrape_ms", "ms", scrapeMS)
	rep.set("querylog.bytes_per_query", "bytes", ratio(delta("qlog_bytes"), delta("qlog_records")))

	// internal/core, internal/sparse, internal/ppvindex fetches, internal/cluster legs
	b.setQueryLayers(rep, lb.samples, spans)
	rep.set("core.update_ms", "ms", median(updMS))
	rep.set("core.affected_hubs_per_update", "count", mean(affected))

	// internal/ppvindex
	rep.set("ppvindex.block_hit_frac", "fraction", ratio(blockDelta("block_hits"), blockDelta("block_hits")+blockDelta("block_misses")))
	rep.set("ppvindex.block_evictions_per_query", "count", ratio(blockDelta("block_evictions"), computed))
	var wal, glog []float64
	if ts, ok := b.st.disk.(*tracedDiskStore); ok {
		w, g := ts.logBytes()
		for i := range w {
			wal = append(wal, float64(w[i]))
			glog = append(glog, float64(g[i]))
		}
	}
	var commits []float64
	for _, sp := range spans {
		if sp.kind == spanCommit {
			commits = append(commits, float64(sp.dur)/1e6)
		}
	}
	rep.set("ppvindex.wal_bytes_per_update", "bytes", mean(wal))
	rep.set("ppvindex.graphlog_bytes_per_update", "bytes", mean(glog))
	rep.set("ppvindex.commit_ms", "ms", median(commits))
	rep.set("ppvindex.compactions", "count", delta("compactions"))
	rep.set("ppvindex.compact_ms", "ms", compactMS)
	rep.set("ppvindex.index_bytes", "bytes", float64(b.st.offline.IndexBytes))

	// internal/graph, internal/hub and set-up
	rebuild, err := b.timeRebuilds()
	if err != nil {
		return nil, err
	}
	rep.set("graph.rebuild_ms", "ms", rebuild)
	rep.set("setup.hub_select_s", "s", b.st.offline.HubSelection.Seconds())
	rep.set("setup.precompute_s", "s", b.st.offline.PrimePPV.Seconds())
	rep.set("setup.open_s", "s", b.st.openDur.Seconds())

	// internal/prime
	if err := b.setPrime(rep, from, lb.next); err != nil {
		return nil, err
	}

	// internal/cluster counters
	rep.set("cluster.wire_bytes_per_query", "bytes", ratio(delta("wire_bytes"), computed))
	rep.set("cluster.speculation_hit_frac", "fraction", ratio(delta("spec_hits"), delta("spec_sent")))
	rep.set("cluster.retries", "count", delta("retries"))
	rep.set("cluster.json_fallbacks", "count", delta("fallbacks"))
	rep.set("cluster.reconnects", "count", delta("reconnects"))

	// the tracing itself
	rep.set("trace.overhead_p50_us", "us", median(tracedLat)-median(untracedLat))
	rep.set("trace.spans", "count", float64(len(spans)))
	if err := b.writeSpans(lb.samples, spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
	return rep, nil
}

// setQueryLayers derives the per-query layer metrics from the traced
// computed queries: the program's per-iteration trace gives iteration times
// and counts, the store spans inside the request give index fetch times.
func (b *bench) setQueryLayers(rep *report, samples []sample, spans []span) {
	hubSet := b.hubSet()
	var (
		iter0Push, iter0View, steps, folds, gets, views, legs, routerSelf []float64
		iter0Sum, engineSum                                               float64
		n, iters, expanded, skipped, frontier, fetches, legCount          float64
	)
	for _, q := range tracedQueries(samples, spans) {
		tr := q.s.trace
		if tr == nil || len(tr.Iterations) == 0 {
			continue
		}
		n++
		d0 := tr.Iterations[0].DurationMS * 1e3
		if hubSet.Contains(q.s.node) {
			iter0View = append(iter0View, d0)
		} else {
			iter0Push = append(iter0Push, d0)
		}
		iter0Sum += tr.Iterations[0].DurationMS
		engineSum += tr.DurationMS
		var stepUS, legCritical float64
		for k, it := range tr.Iterations {
			var longest float64
			for _, l := range it.Legs {
				legs = append(legs, l.DurationMS*1e3)
				legCount++
				longest = max(longest, l.DurationMS)
			}
			legCritical += longest
			if k == 0 {
				continue
			}
			iters++
			stepUS += it.DurationMS * 1e3
			expanded += float64(it.HubsExpanded)
			skipped += float64(it.HubsSkipped)
			frontier += float64(it.FrontierSize)
		}
		if tr.Mode == "router" {
			routerSelf = append(routerSelf, (tr.DurationMS-legCritical)*1e3)
		}
		// Iteration 0 looks up the source itself; every other fetch belongs
		// to a step.
		var stepFetchUS float64
		lead := true
		for _, sp := range q.spans {
			if sp.kind != spanGet && sp.kind != spanGetView {
				continue
			}
			fetches++
			if sp.kind == spanGet {
				gets = append(gets, float64(sp.dur))
			} else {
				views = append(views, float64(sp.dur))
			}
			if lead && sp.hub == q.s.node {
				continue
			}
			lead = false
			stepFetchUS += float64(sp.dur) / 1e3
		}
		if k := float64(len(tr.Iterations) - 1); k > 0 {
			steps = append(steps, stepUS/k)
			if tr.Mode == "engine" {
				folds = append(folds, (stepUS-stepFetchUS)/k)
			}
		}
	}
	rep.set("core.iter0_push_us", "us", median(iter0Push))
	rep.set("core.iter0_view_us", "us", median(iter0View))
	rep.set("core.iter0_frac", "fraction", ratio(iter0Sum, engineSum))
	rep.set("core.step_us", "us", median(steps))
	rep.set("core.iterations_per_query", "count", ratio(iters, n))
	rep.set("core.hubs_expanded_per_query", "count", ratio(expanded, n))
	rep.set("core.hubs_skipped_per_query", "count", ratio(skipped, n))
	rep.set("core.frontier_per_query", "count", ratio(frontier, n))
	rep.set("sparse.fold_us", "us", median(folds))
	rep.set("ppvindex.get_ns", "ns", median(gets))
	rep.set("ppvindex.get_view_ns", "ns", median(views))
	rep.set("ppvindex.fetches_per_query", "count", ratio(fetches, n))
	rep.set("cluster.legs_per_query", "count", ratio(legCount, n))
	rep.set("cluster.leg_p50_us", "us", median(legs))
	rep.set("cluster.router_self_us", "us", median(routerSelf))
}

// tracedQuery is a traced query with the store spans that started inside it.
type tracedQuery struct {
	s     *sample
	spans []span
}

// tracedQueries pairs each traced query with the spans inside its request.
// The traced phase has one caller, so requests do not overlap.
func tracedQueries(samples []sample, spans []span) []tracedQuery {
	var out []tracedQuery
	for i := range samples {
		s := &samples[i]
		if !s.traced || s.update || !s.ok {
			continue
		}
		lo := sort.Search(len(spans), func(k int) bool { return spans[k].start >= s.start })
		hi := sort.Search(len(spans), func(k int) bool { return spans[k].start > s.end })
		out = append(out, tracedQuery{s: s, spans: spans[lo:hi]})
	}
	return out
}

func (b *bench) hubSet() *hub.Set {
	if b.st.engine != nil {
		return b.st.engine.Hubs()
	}
	return b.st.shards[0].Hubs()
}

// setPrime re-runs the prime push of the distinct non-hub sources the
// measured part served, in sequence order, on the graph the stack serves.
func (b *bench) setPrime(rep *report, from, to int64) error {
	hubSet := b.hubSet()
	seen := make(map[graph.NodeID]bool)
	var srcs []graph.NodeID
	for i := from; i < to; i++ {
		o := b.seq.at(i)
		if o.batch >= 0 || seen[o.node] || hubSet.Contains(o.node) {
			continue
		}
		seen[o.node] = true
		srcs = append(srcs, o.node)
	}
	opts := b.engineOptions()
	popts := prime.Options{Alpha: opts.Alpha, Epsilon: opts.Epsilon, MaxPushes: opts.MaxPushes}
	g := b.st.graph()
	var us, pushes, nodes, border []float64
	var truncated float64
	for _, src := range srcs[:min(len(srcs), primeSample)] {
		start := time.Now()
		_, st, err := prime.ComputePPV(g, src, hubSet, popts)
		if err != nil {
			return fmt.Errorf("prime push of %d: %w", src, err)
		}
		us = append(us, float64(time.Since(start))/1e3)
		pushes = append(pushes, float64(st.Pushes))
		nodes = append(nodes, float64(st.NodesTouched))
		border = append(border, float64(st.BorderHubs))
		if st.Truncated {
			truncated++
		}
	}
	rep.set("prime.sources", "count", float64(len(srcs)))
	rep.set("prime.push_us", "us", median(us))
	rep.set("prime.pushes_per_call", "count", mean(pushes))
	rep.set("prime.subgraph_nodes_per_call", "count", mean(nodes))
	rep.set("prime.border_hubs_per_call", "count", mean(border))
	rep.set("prime.truncated_frac", "fraction", ratio(truncated, float64(len(us))))
	return nil
}

func (b *bench) engineOptions() core.Options {
	if b.st.engine != nil {
		return b.st.engine.Options()
	}
	return b.st.shards[0].Options()
}

// timeScrapes returns the median latency of /v1/stats and of /metrics.
func (b *bench) timeScrapes() (statsMS, scrapeMS float64, err error) {
	var st, sc []float64
	for i := 0; i < scrapes; i++ {
		for _, p := range []string{"/v1/stats", "/metrics"} {
			start := time.Now()
			if _, _, err := b.c.get(p); err != nil {
				return 0, 0, err
			}
			ms := float64(time.Since(start)) / 1e6
			if p == "/metrics" {
				sc = append(sc, ms)
			} else {
				st = append(st, ms)
			}
		}
	}
	return median(st), median(sc), nil
}

// timeCompaction compacts the disk store the run left behind (the reopened
// one after a durability audit) and returns how long it took.
func (b *bench) timeCompaction() (float64, error) {
	var c interface {
		Compact() (ppvindex.CompactionResult, error)
	}
	switch {
	case b.reopened != nil:
		var ok bool
		if c, ok = b.reopened.Index().(interface {
			Compact() (ppvindex.CompactionResult, error)
		}); !ok {
			return 0, errors.New("reopened index cannot compact")
		}
	case b.st.disk != nil:
		c = b.st.disk
	default:
		return 0, nil
	}
	start := time.Now()
	if _, err := c.Compact(); err != nil {
		return 0, fmt.Errorf("compaction: %w", err)
	}
	return float64(time.Since(start)) / 1e6, nil
}

// timeRebuilds replays the first applied batches onto the generated graph
// with core.ReplayGraphUpdate and returns the median time per batch.
func (b *bench) timeRebuilds() (float64, error) {
	g := b.st.g0
	var ms []float64
	for _, batch := range b.applied[:min(len(b.applied), rebuildSample)] {
		start := time.Now()
		next, err := core.ReplayGraphUpdate(g, core.GraphUpdate{AddedEdges: edges(batch)})
		if err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(start))/1e6)
		g = next
	}
	return median(ms), nil
}

// writeSpans writes the traced requests and their store spans to
// spans-<workload>.tsv in the work directory, one span per line: request
// number, kind, hub, start and duration in nanoseconds.
func (b *bench) writeSpans(samples []sample, spans []span) error {
	if b.cfg.workDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(b.cfg.workDir, "spans-"+b.cfg.workload+".tsv"))
	if err != nil {
		return err
	}
	fmt.Fprintln(f, "request\tkind\thub\tstart_ns\tdur_ns")
	for k, q := range tracedQueries(samples, spans) {
		fmt.Fprintf(f, "%d\trequest\t%d\t%d\t%d\n", k, q.s.node, q.s.start, q.s.end-q.s.start)
		for _, sp := range q.spans {
			fmt.Fprintf(f, "%d\t%s\t%d\t%d\t%d\n", k, spanKindNames[sp.kind], sp.hub, sp.start, sp.dur)
		}
	}
	return f.Close()
}
