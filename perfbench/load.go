package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fastppv/internal/graph"
)

// op is one request of the sequence: a query for node, or the update batch
// with index batch when batch >= 0.
type op struct {
	node  graph.NodeID
	batch int32
}

// sequence is the seeded request sequence every caller pulls from, so the
// popularity ranking (and with it the hit rate) does not depend on the
// number of callers. Update ops index the fixed batch stream.
type sequence struct {
	ops     []op
	batches [][][2]int
}

func (s *sequence) at(i int64) op { return s.ops[i%int64(len(s.ops))] }

func (s *sequence) batch(o op) [][2]int { return s.batches[int(o.batch)%len(s.batches)] }

// makeSequence draws length ops: sources from one Zipf popularity ranking
// over all nodes (or uniformly over hubs), with an update batch after every
// updateEvery reads.
//
// Only the draws depend on seed. The popularity ranking is fixed: without a
// result cache the few hottest sources carry a large share of all requests
// (rank 1 alone draws ~18% at s = 1.2), so a ranking that moved with the
// seed would move the latency percentiles with it.
func makeSequence(w workload, seed int64, g *graph.Graph, hubs []graph.NodeID, batches [][][2]int, length int) *sequence {
	s := &sequence{ops: make([]op, 0, length), batches: batches}
	next := sourceSampler(w, seed, g, hubs)
	reads, updates := 0, int32(0)
	for len(s.ops) < length {
		if w.updateEvery > 0 && reads == w.updateEvery {
			s.ops = append(s.ops, op{batch: updates})
			updates++
			reads = 0
			continue
		}
		s.ops = append(s.ops, op{node: next(), batch: -1})
		reads++
	}
	return s
}

// sourceSampler returns a seeded draw of query sources: uniform over the
// hubs, or from one Zipf ranking over all nodes.
func sourceSampler(w workload, seed int64, g *graph.Graph, hubs []graph.NodeID) func() graph.NodeID {
	rng := rand.New(rand.NewSource(seed))
	if w.hubSources {
		return func() graph.NodeID { return hubs[rng.Intn(len(hubs))] }
	}
	rank := rand.New(rand.NewSource(rankSeed)).Perm(g.NumNodes())
	z := rand.NewZipf(rng, zipfS, 1, uint64(g.NumNodes()-1))
	return func() graph.NodeID { return graph.NodeID(rank[z.Uint64()]) }
}

// makeBatches draws the fixed stream of n update batches, each adding
// batchSize edges absent from g, no edge twice. The stream does not depend
// on the run's seed: batch costs are heavy tailed (a batch touching a node
// near many hubs recomputes many of them), so every run applies the same
// batches and update latencies stay comparable across seeds.
func makeBatches(g *graph.Graph, n int) [][][2]int {
	rng := rand.New(rand.NewSource(batchSeed))
	used := make(map[[2]int]bool)
	nodes := g.NumNodes()
	out := make([][][2]int, n)
	for i := range out {
		b := make([][2]int, 0, batchSize)
		for len(b) < batchSize {
			e := [2]int{rng.Intn(nodes), rng.Intn(nodes)}
			if e[0] == e[1] || used[e] || g.HasEdge(graph.NodeID(e[0]), graph.NodeID(e[1])) {
				continue
			}
			used[e] = true
			b = append(b, e)
		}
		out[i] = b
	}
	return out
}

// Cache dispositions from the X-Fastppv-Cache header.
const (
	cacheOther uint8 = iota
	cacheHit
	cacheMiss
	cacheCoalesced
	cacheBypass
)

// sample is the outcome of one request.
type sample struct {
	update   bool
	ok       bool
	traced   bool
	node     graph.NodeID
	start    int64 // ns on the recorder clock
	end      int64
	cache    uint8
	degraded bool
	bound    float64
	bytes    int
	// computeMS is the server-reported compute time of a query, or the
	// engine-reported duration of an update.
	computeMS float64
	traceID   string
	// trace is the retained engine or router trace of a traced computed
	// query.
	trace *retainedTrace
	// Update outcomes.
	invalidated int
	affected    int
}

func (s *sample) latency() time.Duration { return time.Duration(s.end - s.start) }

// queryAnswer is the part of a /v1/ppv body the benchmark reads.
type queryAnswer struct {
	Node         int     `json:"node"`
	Iterations   int     `json:"iterations"`
	Degraded     bool    `json:"degraded"`
	L1ErrorBound float64 `json:"l1_error_bound"`
	Results      []struct {
		Node  int     `json:"node"`
		Score float64 `json:"score"`
	} `json:"results"`
}

// updateAnswer covers both the engine and the router update bodies.
type updateAnswer struct {
	AffectedHubs int     `json:"affected_hubs"`
	Invalidated  int     `json:"invalidated"`
	DurationMS   float64 `json:"duration_ms"`
	Degraded     bool    `json:"degraded"`
	ShardsFailed int     `json:"shards_failed"`
	Shards       []struct {
		AffectedHubs int `json:"affected_hubs"`
	} `json:"shards"`
}

// client issues requests against one stack.
type client struct {
	http *http.Client
	base string
	eta  int
	clk  *recorder
}

func newClient(base string, eta int, clk *recorder) *client {
	return &client{
		http: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true},
		},
		base: base, eta: eta, clk: clk,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// get fetches a URL and returns its body, failing on any status but 200.
func (c *client) get(path string) ([]byte, http.Header, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, resp.Header, nil
}

// query runs one /v1/ppv request and fills s; the answer is returned for
// audits.
func (c *client) query(node graph.NodeID, s *sample) (*queryAnswer, error) {
	s.node = node
	s.start = c.clk.now()
	body, hdr, err := c.get("/v1/ppv?node=" + strconv.Itoa(int(node)) + "&eta=" + strconv.Itoa(c.eta) + "&top=" + strconv.Itoa(topK))
	s.end = c.clk.now()
	if err != nil {
		return nil, err
	}
	var ans queryAnswer
	if err := json.Unmarshal(body, &ans); err != nil {
		return nil, fmt.Errorf("decoding answer of node %d: %w", node, err)
	}
	if ans.Node != int(node) {
		return nil, fmt.Errorf("asked for node %d, answered node %d", node, ans.Node)
	}
	s.ok = true
	s.bytes = len(body)
	s.degraded = ans.Degraded
	s.bound = ans.L1ErrorBound
	switch hdr.Get("X-Fastppv-Cache") {
	case "hit":
		s.cache = cacheHit
	case "miss":
		s.cache = cacheMiss
	case "coalesced":
		s.cache = cacheCoalesced
	case "bypass":
		s.cache = cacheBypass
	}
	s.computeMS, _ = strconv.ParseFloat(hdr.Get("X-Fastppv-Compute-Ms"), 64)
	s.traceID = hdr.Get("X-Fastppv-Trace")
	return &ans, nil
}

// update posts one batch to /v1/update and fills s.
func (c *client) update(batch [][2]int, s *sample) error {
	s.update = true
	body, err := json.Marshal(map[string]any{"added_edges": batch})
	if err != nil {
		return err
	}
	s.start = c.clk.now()
	resp, err := c.http.Post(c.base+"/v1/update", "application/json", bytes.NewReader(body))
	if err != nil {
		s.end = c.clk.now()
		return err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	s.end = c.clk.now()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("update: status %d: %s", resp.StatusCode, bytes.TrimSpace(rb))
	}
	var ua updateAnswer
	if err := json.Unmarshal(rb, &ua); err != nil {
		return fmt.Errorf("decoding update answer: %w", err)
	}
	if ua.Degraded || ua.ShardsFailed > 0 {
		return fmt.Errorf("update applied on only part of the cluster: %s", rb)
	}
	s.ok = true
	s.invalidated = ua.Invalidated
	s.computeMS = ua.DurationMS
	s.affected = ua.AffectedHubs
	for _, sh := range ua.Shards {
		s.affected += sh.AffectedHubs
	}
	return nil
}

// do runs op i of the sequence.
func (c *client) do(seq *sequence, i int64, s *sample) error {
	o := seq.at(i)
	if o.batch >= 0 {
		return c.update(seq.batch(o), s)
	}
	_, err := c.query(o.node, s)
	return err
}

// loadResult is what one closed-loop phase produced.
type loadResult struct {
	samples []sample
	elapsed time.Duration
	next    int64 // first sequence index not issued
	errs    []error
}

// maxErrs bounds how many request errors a phase keeps for the log.
const maxErrs = 5

// aroundFunc wraps one request of a closed loop: it must call do exactly
// once and return its error (or its own). i is the request's sequence index.
type aroundFunc func(i int64, s *sample, do func() error) error

// closedLoop runs callers that each send the next op of the sequence, from
// index from on, as soon as their previous reply arrived, until d has passed.
// Requests in flight at the deadline complete and are counted.
func closedLoop(c *client, seq *sequence, from int64, callers int, d time.Duration, around aroundFunc) loadResult {
	var (
		next atomic.Int64
		mu   sync.Mutex
		res  loadResult
		wg   sync.WaitGroup
	)
	next.Store(from)
	start := time.Now()
	deadline := start.Add(d)
	wg.Add(callers)
	for k := 0; k < callers; k++ {
		go func() {
			defer wg.Done()
			var local []sample
			var errs []error
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				var s sample
				do := func() error { return c.do(seq, i, &s) }
				var err error
				if around != nil {
					err = around(i, &s, do)
				} else {
					err = do()
				}
				if err != nil && len(errs) < maxErrs {
					errs = append(errs, err)
				}
				local = append(local, s)
			}
			mu.Lock()
			res.samples = append(res.samples, local...)
			res.errs = append(res.errs, errs...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.next = next.Load()
	return res
}

// warmup runs the first n reads of the sequence with callers concurrent
// callers and returns the index the measured part starts at. Update ops in
// the warm-up prefix are skipped.
func warmup(c *client, seq *sequence, n, callers int) (int64, error) {
	var idx []int64
	var i int64
	for len(idx) < n {
		if seq.at(i).batch < 0 {
			idx = append(idx, i)
		}
		i++
	}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	wg.Add(callers)
	for k := 0; k < callers; k++ {
		go func() {
			defer wg.Done()
			for {
				j := next.Add(1) - 1
				if j >= int64(len(idx)) {
					return
				}
				var s sample
				if _, err := c.query(seq.at(idx[j]).node, &s); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return 0, fmt.Errorf("warm-up: %w", first)
	}
	return i, nil
}

// monitor scrapes /metrics and /v1/stats once a second, as a monitoring
// system would, until stop is called.
type monitor struct {
	stopc    chan struct{}
	done     chan struct{}
	attempts int64
	failures int64
}

func startMonitor(c *client) *monitor {
	m := &monitor{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-m.stopc:
				return
			case <-t.C:
				for _, p := range []string{"/metrics", "/v1/stats"} {
					m.attempts++
					if _, _, err := c.get(p); err != nil {
						m.failures++
					}
				}
			}
		}
	}()
	return m
}

// stop ends the scraping and waits for the scraper to exit.
func (m *monitor) stop() {
	close(m.stopc)
	<-m.done
}
