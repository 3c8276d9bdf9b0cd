package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fastppv/internal/core"
	"fastppv/internal/graph"
)

const (
	// probeBatches is the number of update batches a read-only workload
	// applies, one after another, to each stack it sets up (before the
	// stack serves any read), for its update metrics. Probing every set-up
	// spreads the samples over the whole set-up phase instead of a few
	// seconds.
	probeBatches = 12
	// streamBatches is the length of the fixed batch stream; update-mix
	// cycles through it.
	streamBatches = 512
	// maxRate bounds the requests per second the sequence is sized for; a
	// faster run wraps around to its head.
	maxRate = 30000
)

// bench is one benchmark invocation in progress.
type bench struct {
	cfg runConfig
	w   workload
	dir string

	st *stack
	c  *client
	// rec is the clock of every sample; in traced runs it also holds the
	// store spans.
	rec     *recorder
	batches [][][2]int
	seq     *sequence
	// probes are the update samples of the set-up probes.
	probes []sample
	// applied lists the update batches the served stack accepted, in order.
	applied [][][2]int
	// reopened is the engine of the durability audit and its close function.
	reopened      *core.Engine
	closeReopened func() error
}

func (b *bench) close() {
	if b.c != nil {
		b.c.close()
	}
	if b.st != nil {
		b.st.close()
	}
	if b.closeReopened != nil {
		if err := b.closeReopened(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: closing the reopened index:", err)
		}
	}
}

func (b *bench) callers() int { return runtime.NumCPU() }

func (b *bench) seconds() time.Duration { return time.Duration(b.cfg.seconds * float64(time.Second)) }

// setupAll builds the stack reps times, keeps the last one, and returns
// every set-up time in seconds. Read-only workloads probe each stack with
// update batches right after it is set up.
func (b *bench) setupAll(reps int) ([]float64, error) {
	var times []float64
	var rec *recorder
	if b.cfg.trace {
		rec = b.rec
	}
	for i := 0; i < reps; i++ {
		st, d, err := setup(b.cfg, b.w, filepath.Join(b.dir, fmt.Sprintf("setup-%d", i)), rec)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, d.Seconds())
		if b.batches == nil {
			b.batches = makeBatches(st.g0, streamBatches)
		}
		if b.w.updateEvery == 0 {
			b.probe(st, i == reps-1)
		}
		if i < reps-1 {
			st.close()
			runtime.GC()
			continue
		}
		if b.w.updateEvery == 0 && st.disk != nil {
			// The probes left their recomputed hubs in the store's
			// in-memory overlay, which reads fetch with a plain Get;
			// folding them into the base file makes every read go through
			// the disk path the workload measures.
			if _, err := st.disk.Compact(); err != nil {
				st.close()
				return nil, fmt.Errorf("compacting after the probes: %w", err)
			}
		}
		b.st = st
	}
	return times, nil
}

// probe applies the first probeBatches batches to st one after another.
// keep records them as applied to the served stack.
func (b *bench) probe(st *stack, keep bool) {
	c := newClient(st.base, b.w.eta, b.rec)
	defer c.close()
	for _, batch := range b.batches[:probeBatches] {
		var s sample
		b.rec.on.Store(b.cfg.trace)
		err := c.update(batch, &s)
		b.rec.on.Store(false)
		s.traced = b.cfg.trace
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: probe update:", err)
		} else if keep {
			b.applied = append(b.applied, batch)
		}
		b.probes = append(b.probes, s)
	}
}

// prepare draws the request sequence, warms the stack up and returns the
// sequence index the measured part starts at.
func (b *bench) prepare() (int64, error) {
	length := int(b.cfg.seconds*maxRate) + b.w.warmup
	b.seq = makeSequence(b.w, b.cfg.seed, b.st.g0, b.st.hubList(), b.batches, length)
	b.c = newClient(b.st.base, b.w.eta, b.rec)
	return warmup(b.c, b.seq, b.w.warmup, b.callers())
}

// measure runs the closed loop, with the monitor scraping alongside when the
// workload has one.
func (b *bench) measure(from int64, callers int, d time.Duration, around aroundFunc) (loadResult, *monitor) {
	var mon *monitor
	if b.w.monitor {
		mon = startMonitor(b.c)
	}
	lr := closedLoop(b.c, b.seq, from, callers, d, around)
	if mon != nil {
		mon.stop()
	}
	b.noteApplied(lr.samples, from)
	return lr, mon
}

// noteApplied records the accepted update batches of a closed loop in
// sequence order. Concurrent callers could in principle commit two batches
// out of that order; the list only feeds the graph.rebuild_ms replay, which
// does not depend on it.
func (b *bench) noteApplied(samples []sample, from int64) {
	ok := 0
	for _, s := range samples {
		if s.update && s.ok {
			ok++
		}
	}
	for i := from; ok > 0; i++ {
		if o := b.seq.at(i); o.batch >= 0 {
			b.applied = append(b.applied, b.seq.batch(o))
			ok--
		}
	}
}

// audits runs the correctness audit and, on durable stacks, the durability
// audit.
func (b *bench) audits() (auditOutcome, error) {
	srcs := auditSources(b.w, b.st.g0, b.st.hubList(), b.cfg.audit)
	ref, tol := b.st.engine, 0.0
	if ref == nil {
		var err error
		if ref, err = b.reference(); err != nil {
			return auditOutcome{}, err
		}
		tol = routedTolerance
	}
	out := audit(b.c, ref, b.w.eta, tol, srcs, b.cfg.tamper)
	if b.w.updateEvery > 0 && b.st.indexPath != "" {
		e, closeIdx, err := durabilityAudit(b.st, b.w.eta, out.answers, &out)
		if err != nil {
			return out, err
		}
		b.reopened, b.closeReopened = e, closeIdx
	}
	return out, nil
}

// reference builds the single-node engine a cluster's answers must equal,
// with the same update batches applied. Its build time is not set-up time.
func (b *bench) reference() (*core.Engine, error) {
	e, err := core.NewEngine(b.st.g0, nil, b.st.opts)
	if err != nil {
		return nil, err
	}
	if err := e.Precompute(); err != nil {
		return nil, err
	}
	for _, batch := range b.applied {
		if _, err := e.ApplyUpdate(core.GraphUpdate{AddedEdges: edges(batch)}); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func edges(batch [][2]int) []graph.Edge {
	out := make([]graph.Edge, len(batch))
	for i, e := range batch {
		out[i] = graph.Edge{From: graph.NodeID(e[0]), To: graph.NodeID(e[1])}
	}
	return out
}

// tally counts attempted and failed operations.
type tally struct {
	attempted, failed int64
}

func (t *tally) samples(ss []sample) {
	for _, s := range ss {
		t.attempted++
		if !s.ok {
			t.failed++
		}
	}
}

func (t *tally) monitor(m *monitor) {
	if m != nil {
		t.attempted += m.attempts
		t.failed += m.failures
	}
}

func (t *tally) audit(a auditOutcome) {
	t.attempted += int64(a.checks)
	t.failed += int64(len(a.failures))
}

func logErrors(what string, errs []error) {
	for _, err := range errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
	}
}

// runEndToEnd measures the workload with tracing off.
func (b *bench) runEndToEnd() (*report, error) {
	setups, err := b.setupAll(b.cfg.setupReps)
	if err != nil {
		return nil, err
	}
	from, err := b.prepare()
	if err != nil {
		return nil, err
	}
	lr, mon := b.measure(from, b.callers(), b.seconds(), nil)
	logErrors("request", lr.errs)
	// Read before the audits, whose exact PPVs and reference engine are
	// not the program's memory.
	rss := peakRSSMB()

	var t tally
	t.samples(lr.samples)
	t.samples(b.probes)
	t.monitor(mon)
	updates := lr.samples
	if b.w.updateEvery == 0 {
		updates = b.probes
	}
	aud, err := b.audits()
	if err != nil {
		return nil, err
	}
	logErrors("audit", aud.failures)
	t.audit(aud)

	rep := &report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	var lat, bounds []float64
	var degraded int
	for _, s := range lr.samples {
		if s.update || !s.ok {
			continue
		}
		lat = append(lat, float64(s.latency())/1e6)
		if s.degraded {
			degraded++
		} else {
			bounds = append(bounds, s.bound)
		}
	}
	var ulat []float64
	for _, s := range updates {
		if s.update && s.ok {
			ulat = append(ulat, float64(s.latency())/1e6)
		}
	}
	if len(lat) == 0 || len(ulat) == 0 {
		return nil, errors.New("no successful queries or updates to report")
	}
	rep.set("qps", "queries/s", float64(len(lat))/lr.elapsed.Seconds())
	rep.set("query_count", "count", float64(len(lat)))
	rep.set("query_p50_ms", "ms", median(lat))
	rep.set("query_p99_ms", "ms", percentile(lat, 0.99))
	rep.set("update_p50_ms", "ms", median(ulat))
	rep.set("update_p90_ms", "ms", percentile(ulat, 0.9))
	rep.set("ok_frac", "fraction", 1-ratio(float64(t.failed), float64(t.attempted)))
	rep.set("undegraded_frac", "fraction", 1-ratio(float64(degraded), float64(len(lat))))
	rep.set("bound_mean", "phi", mean(bounds))
	rep.set("precision_at_10", "fraction", aud.precision)
	rep.set("setup_s", "s", median(setups))
	rep.set("rss_peak_mb", "MB", rss)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d queries in %.2fs (p99 over %d samples), %d updates, setups %v\n",
		b.cfg.workload, b.cfg.seed, len(lat), lr.elapsed.Seconds(), len(lat), len(ulat), setups)
	return rep, nil
}
