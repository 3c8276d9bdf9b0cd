// Package prime implements prime subgraphs and prime PPVs (Definition 2 of
// the paper). The prime PPV of a node v is the reachability from v to every
// node through hub-free tours only: tours whose interior traverses no hub.
// Prime PPVs of hub nodes are the precomputed building blocks of FastPPV's
// offline phase, and the prime PPV of the query node is iteration 0 of the
// online phase.
//
// Rather than first materializing the prime subgraph and then running power
// iteration on it, ComputePPV uses an equivalent localized forward-push that
// expands tours outward from the source, backtracking at hub nodes (border
// hubs of the prime subgraph) and at "faraway" nodes whose reachability falls
// below the Epsilon threshold, exactly as the depth-first search of Sect. 5.1
// prescribes. Transition probabilities always use the out-degree of the full
// graph, so the resulting scores are reachabilities in the sense of Eq. 2.
package prime

import (
	"errors"
	"fmt"

	"fastppv/internal/graph"
	"fastppv/internal/hub"
	"fastppv/internal/pagerank"
	"fastppv/internal/sparse"
)

// Adjacency is the minimal read-only graph view needed to grow a prime
// subgraph. *graph.Graph satisfies it; the disk-resident cluster view in
// internal/diskgraph satisfies it too, which is how cluster faults are
// charged to prime-subgraph identification.
type Adjacency interface {
	NumNodes() int
	OutDegree(graph.NodeID) int
	OutNeighbors(graph.NodeID) []graph.NodeID
}

// DefaultEpsilon is the faraway-node reachability threshold of Sect. 5.1.
const DefaultEpsilon = 1e-8

// Options configure prime PPV computation.
type Options struct {
	// Alpha is the teleporting probability; zero means pagerank.DefaultAlpha.
	Alpha float64
	// Epsilon is the faraway threshold: tours are not extended past a node
	// whose accumulated reachability is below Epsilon. Zero means
	// DefaultEpsilon.
	Epsilon float64
	// MaxPushes caps the number of node expansions as a safety valve on
	// pathological graphs; zero means 50 million.
	MaxPushes int
}

func (o Options) withDefaults() (Options, error) {
	if o.Alpha == 0 {
		o.Alpha = pagerank.DefaultAlpha
	}
	if o.Alpha <= 0 || o.Alpha >= 1 {
		return o, fmt.Errorf("prime: alpha %v outside (0,1)", o.Alpha)
	}
	if o.Epsilon == 0 {
		o.Epsilon = DefaultEpsilon
	}
	if o.Epsilon < 0 {
		return o, errors.New("prime: negative epsilon")
	}
	if o.MaxPushes == 0 {
		o.MaxPushes = 50_000_000
	}
	if o.MaxPushes < 0 {
		return o, errors.New("prime: negative MaxPushes")
	}
	return o, nil
}

// Stats describes the work done to compute one prime PPV; the offline and
// online complexity analyses of Sect. 5 are validated against these counters.
type Stats struct {
	// Pushes is the number of node expansions performed.
	Pushes int
	// NodesTouched is the number of distinct nodes that received mass, i.e.
	// the size of the prime subgraph (including border hubs).
	NodesTouched int
	// BorderHubs is the number of distinct hub nodes reached, |H'(v)|.
	BorderHubs int
	// Truncated reports whether MaxPushes stopped the expansion early.
	Truncated bool
}

// ComputePPV computes the prime PPV of src with respect to the hub set. The
// returned vector includes the src self-entry contributed by the empty tour
// (score alpha), plus the reachability of every node on hub-free tours from
// src. Entries at hub nodes are the "border hub" entries used to extend tours
// in later FastPPV iterations.
func ComputePPV(g Adjacency, src graph.NodeID, hubs *hub.Set, opts Options) (sparse.Vector, Stats, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, Stats{}, err
	}
	if src < 0 || int(src) >= g.NumNodes() {
		return nil, Stats{}, fmt.Errorf("prime: %w: source %d", graph.ErrNodeOutOfRange, src)
	}

	// reach[u] accumulates the settled reachability mass of hub-free tours
	// from src to u (without the trailing alpha stop factor). residual[u]
	// holds mass that still has to be either settled or expanded.
	//
	// The worklist is processed in FIFO order: breadth-first processing keeps
	// the residual arriving at a node batched into few expansions, so the
	// number of pushes stays near (prime-subgraph size) x (decay rounds) even
	// for very small Epsilon. Depth-first order would degenerate into
	// enumerating individual tours.
	reach := make(map[graph.NodeID]float64)
	residual := make(map[graph.NodeID]float64)
	var queue []graph.NodeID
	inQueue := make(map[graph.NodeID]bool)
	var stats Stats

	// The walk starts at src: the empty tour contributes mass 1 at src, and
	// the first step fans out over src's out-edges. This initial expansion is
	// done outside the loop because only the *starting* occurrence of src is
	// exempt from hub blocking — if src is itself a hub and a tour later
	// returns to it, that interior occurrence counts towards hub length and
	// must not be expanded further (Definition 1 excludes only the start and
	// end positions, not every occurrence of the start node).
	reach[src] = 1
	stats.Pushes++
	if deg := g.OutDegree(src); deg > 0 {
		share := (1 - opts.Alpha) / float64(deg)
		for _, v := range g.OutNeighbors(src) {
			residual[v] += share
			if !inQueue[v] {
				inQueue[v] = true
				queue = append(queue, v)
			}
		}
	}

	for head := 0; head < len(queue); head++ {
		if stats.Pushes >= opts.MaxPushes {
			stats.Truncated = true
			break
		}
		if head > 1<<16 && head*2 > len(queue) {
			// Reclaim the consumed prefix of the worklist.
			queue = append(queue[:0], queue[head:]...)
			head = 0
		}
		u := queue[head]
		inQueue[u] = false
		r := residual[u]
		if r == 0 {
			continue
		}
		delete(residual, u)
		reach[u] += r
		stats.Pushes++

		// Tours may not be extended through an interior hub.
		if hubs.Contains(u) {
			continue
		}
		// Faraway node: keep its mass but stop extending tours through it.
		if r < opts.Epsilon {
			continue
		}
		deg := g.OutDegree(u)
		if deg == 0 {
			continue // dangling: the walk is absorbed
		}
		share := r * (1 - opts.Alpha) / float64(deg)
		for _, v := range g.OutNeighbors(u) {
			residual[v] += share
			if !inQueue[v] {
				inQueue[v] = true
				queue = append(queue, v)
			}
		}
	}
	// Settle whatever residual mass is left (nodes reached below the
	// expansion threshold, or left over after truncation).
	for u, r := range residual {
		reach[u] += r
	}

	out := sparse.New(len(reach))
	for u, w := range reach {
		out[u] = opts.Alpha * w
	}
	stats.NodesTouched = len(reach)
	for u := range reach {
		if u != src && hubs.Contains(u) {
			stats.BorderHubs++
		}
	}
	return out, stats, nil
}

// Subgraph is an explicitly materialized prime subgraph, used by tests and by
// the disk-based experiments to reason about prime-subgraph size.
type Subgraph struct {
	// Source is the root of the prime subgraph.
	Source graph.NodeID
	// Nodes are all nodes reached through hub-free tours, including border
	// hubs and the source.
	Nodes []graph.NodeID
	// Border are the border hub nodes H'(Source).
	Border []graph.NodeID
	// Edges are the arcs of the prime subgraph (arcs leaving a border hub or
	// a faraway node are excluded).
	Edges []graph.Edge
}

// Extract materializes the prime subgraph of src by the same traversal rule
// as ComputePPV. It is more expensive than ComputePPV (it records edges) and
// exists for inspection, testing and the disk-based working-set measurements.
func Extract(g Adjacency, src graph.NodeID, hubs *hub.Set, opts Options) (*Subgraph, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if src < 0 || int(src) >= g.NumNodes() {
		return nil, fmt.Errorf("prime: %w: source %d", graph.ErrNodeOutOfRange, src)
	}
	residual := make(map[graph.NodeID]float64)
	var queue []graph.NodeID
	inQueue := make(map[graph.NodeID]bool)
	seen := map[graph.NodeID]bool{src: true}
	expanded := map[graph.NodeID]bool{}
	sub := &Subgraph{Source: src}

	// Initial expansion of the source (see ComputePPV for why the source's
	// starting occurrence is handled separately).
	if deg := g.OutDegree(src); deg > 0 {
		expanded[src] = true
		share := (1 - opts.Alpha) / float64(deg)
		for _, v := range g.OutNeighbors(src) {
			sub.Edges = append(sub.Edges, graph.Edge{From: src, To: v})
			seen[v] = true
			residual[v] += share
			if !inQueue[v] {
				inQueue[v] = true
				queue = append(queue, v)
			}
		}
	}

	pushes := 1
	for head := 0; head < len(queue) && pushes < opts.MaxPushes; head++ {
		u := queue[head]
		inQueue[u] = false
		r := residual[u]
		if r == 0 {
			continue
		}
		delete(residual, u)
		pushes++
		if hubs.Contains(u) {
			continue
		}
		if r < opts.Epsilon {
			continue
		}
		deg := g.OutDegree(u)
		if deg == 0 {
			continue
		}
		share := r * (1 - opts.Alpha) / float64(deg)
		if !expanded[u] {
			expanded[u] = true
			for _, v := range g.OutNeighbors(u) {
				sub.Edges = append(sub.Edges, graph.Edge{From: u, To: v})
			}
		}
		for _, v := range g.OutNeighbors(u) {
			seen[v] = true
			residual[v] += share
			if !inQueue[v] {
				inQueue[v] = true
				queue = append(queue, v)
			}
		}
	}
	for u := range residual {
		seen[u] = true
	}
	for u := range seen {
		sub.Nodes = append(sub.Nodes, u)
		if u != src && hubs.Contains(u) {
			sub.Border = append(sub.Border, u)
		}
	}
	return sub, nil
}
