// telemetry.go holds the router's observability surface: per-iteration spans
// (the routed counterpart of core.IterationStat, with one leg entry per shard
// sub-request) and the metric families the router records into a shared
// telemetry.Registry.
package cluster

import (
	"strconv"

	"fastppv/internal/telemetry"
)

// ShardLegSpan records one shard sub-request of one routed iteration.
type ShardLegSpan struct {
	Shard int `json:"shard"`
	// Hubs is the number of frontier hubs routed to this shard in this
	// iteration (0 for a root leg, which carries the query node instead).
	Hubs       int     `json:"hubs,omitempty"`
	DurationMS float64 `json:"duration_ms"`
	// Epoch is the index epoch the shard answered at, when it answered.
	Epoch uint64 `json:"epoch,omitempty"`
	// Error is set when the leg failed; Skipped when the router never sent it
	// (the shard was already down or epoch-divergent in this query).
	Error   string `json:"error,omitempty"`
	Skipped bool   `json:"skipped,omitempty"`
}

// IterationSpan records one iteration of a routed query: the frontier it
// expanded, the mass it retired, and the per-shard legs it scattered.
type IterationSpan struct {
	Iteration    int     `json:"iteration"`
	FrontierSize int     `json:"frontier_size"`
	MassAdded    float64 `json:"mass_added"`
	L1ErrorBound float64 `json:"l1_error_bound"`
	DurationMS   float64 `json:"duration_ms"`
	// Speculative marks an iteration whose shard requests were pre-sent
	// before the previous fold and stop check ran (a consumed speculation).
	Speculative bool           `json:"speculative,omitempty"`
	Legs        []ShardLegSpan `json:"legs,omitempty"`
}

// routerMetrics are the hot-path metric handles, resolved once at NewRouter.
// Everything derivable from the router's existing atomic counters (per-shard
// request/failure/retry totals, epochs, health) is exported by a scrape-time
// collector instead, at zero per-request cost.
type routerMetrics struct {
	queries    *telemetry.Counter
	degraded   *telemetry.Counter
	lostMass   *telemetry.Counter
	iterations *telemetry.Histogram
	bound      *telemetry.Histogram
	legLatency *telemetry.HistogramVec
	specSent   *telemetry.Counter
	specHits   *telemetry.Counter
}

// newRouterMetrics registers the router's hot-path handles.
func newRouterMetrics(reg *telemetry.Registry) routerMetrics {
	return routerMetrics{
		queries: reg.Counter("fastppv_router_queries_total",
			"Routed cluster queries answered (including degraded answers)."),
		degraded: reg.Counter("fastppv_router_degraded_queries_total",
			"Routed queries answered degraded: a shard was down, epoch-divergent, or a non-owner served the root."),
		lostMass: reg.Counter("fastppv_router_lost_error_mass_total",
			"Total frontier mass folded into error bounds because its owning shard was unavailable or epoch-divergent."),
		iterations: reg.Histogram("fastppv_router_query_iterations",
			"Expansion iterations per routed query (0 = root only).",
			telemetry.LinearBuckets(0, 1, 9)),
		bound: reg.Histogram("fastppv_router_l1_error_bound",
			"Exact L1 error bound of routed answers at stop.",
			telemetry.DefBoundBuckets),
		legLatency: reg.HistogramVec("fastppv_shard_leg_seconds",
			"Latency of one shard sub-request (partial or update leg).",
			telemetry.DefLatencyBuckets, "shard"),
		specSent: reg.Counter("fastppv_router_speculations_sent_total",
			"Iterations pre-sent to shards before their go/no-go decision."),
		specHits: reg.Counter("fastppv_router_speculation_hits_total",
			"Pre-sent iterations the query loop consumed (the rest were cancelled by early stops)."),
	}
}

// observeQuery records the end-of-query metrics for one routed result.
func (m *routerMetrics) observeQuery(res *Result) {
	m.queries.Inc()
	if res.Degraded {
		m.degraded.Inc()
	}
	m.lostMass.Add(res.LostFrontierMass)
	m.iterations.Observe(float64(res.Iterations))
	m.bound.Observe(res.L1ErrorBound)
}

// registerCollector exports the router's point-in-time view — cluster epoch,
// shard health, per-shard request totals — off the existing atomics at scrape
// time.
func (r *Router) registerCollector(reg *telemetry.Registry) {
	reg.Collect(func(e *telemetry.Emitter) {
		st := r.Stats()
		e.Gauge("fastppv_cluster_epoch",
			"Highest index epoch observed on any shard.", float64(st.Epoch))
		e.Gauge("fastppv_cluster_shards_behind",
			"Shards whose last observed epoch is below the cluster epoch.", float64(st.ShardsBehind))
		e.Gauge("fastppv_cluster_shards_healthy",
			"Shards currently passing health checks.", float64(st.ShardsHealthy))
		e.Gauge("fastppv_cluster_shards",
			"Shards the router fans out to.", float64(len(st.Shards)))
		e.Gauge("fastppv_cluster_nodes",
			"Node count of the served graph (0 until discovered).", float64(st.Nodes))
		for _, ss := range st.Shards {
			lbl := telemetry.L("shard", strconv.Itoa(ss.Shard))
			healthy := 0.0
			if ss.Healthy {
				healthy = 1
			}
			e.Gauge("fastppv_shard_healthy", "Whether the shard passes health checks (1/0).", healthy, lbl)
			e.Gauge("fastppv_shard_epoch", "Last index epoch observed on the shard.", float64(ss.Epoch), lbl)
			e.Counter("fastppv_shard_requests_total", "Sub-requests sent to the shard.", float64(ss.Requests), lbl)
			e.Counter("fastppv_shard_failures_total", "Failed sub-requests to the shard.", float64(ss.Failures), lbl)
			e.Counter("fastppv_shard_retries_total", "Sub-requests retried after a transient shard condition.", float64(ss.Retries), lbl)
			ts := ss.Transport
			streamUp := 0.0
			if ts.StreamConnected {
				streamUp = 1
			}
			e.Gauge("fastppv_shard_stream_connected",
				"Whether a binary stream to the shard is established (1/0).", streamUp, lbl)
			e.Counter("fastppv_shard_stream_reconnects_total",
				"Binary streams re-established to the shard after a break.", float64(ts.Reconnects), lbl)
			e.Counter("fastppv_shard_frames_sent_total",
				"Wire frames (or JSON requests) sent to the shard.", float64(ts.FramesSent), lbl)
			e.Counter("fastppv_shard_frames_received_total",
				"Wire frames (or JSON responses) received from the shard.", float64(ts.FramesReceived), lbl)
			e.Counter("fastppv_shard_wire_bytes_sent_total",
				"Partial-protocol bytes sent to the shard.", float64(ts.BytesSent), lbl)
			e.Counter("fastppv_shard_wire_bytes_received_total",
				"Partial-protocol bytes received from the shard.", float64(ts.BytesReceived), lbl)
			e.Counter("fastppv_shard_fallback_requests_total",
				"Sub-requests served over JSON because no stream was available.", float64(ts.FallbackRequests), lbl)
		}
	})
}
