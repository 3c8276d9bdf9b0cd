// expand.go is the hub read path of online query processing: one helper that
// fetches a hub's stored prime PPV and stages it into an accumulator, and one
// kernel that extends a frontier of border hubs by their prime PPVs
// (Theorem 4). Iteration 0, QueryState.Step and PartialExpand all read hub
// records through here.
package core

import (
	"fmt"

	"fastppv/internal/graph"
	"fastppv/internal/prime"
	"fastppv/internal/sparse"
)

// noOwner stages a record without the Theorem 4 self-loop correction (no node
// has a negative id): iteration 0 takes the query node's prime PPV as is.
const noOwner graph.NodeID = -1

// stageHub stages scale times the prime PPV of h into acc, with the self-loop
// correction applied at owner. The record comes from a zero-copy view when
// the store serves one, from Index.Get otherwise (in-memory stores, overlay
// hubs of a disk store), and is computed over adj when h is not indexed;
// computed reports that last case. A failed read is returned when strict and
// recovered by computing the prime PPV otherwise.
func (e *Engine) stageHub(acc *sparse.Accumulator, adj prime.Adjacency, h graph.NodeID, scale float64, owner graph.NodeID, strict bool) (computed bool, err error) {
	if e.viewIndex != nil {
		view, ok, err := e.viewIndex.GetView(h)
		if err == nil && ok {
			acc.StageEncodedExtension(view.EntryBytes(), scale, owner, e.opts.Alpha)
			view.Release()
			return false, nil
		}
		if err != nil && strict {
			return false, fmt.Errorf("core: loading prime PPV of node %d: %w", h, err)
		}
	}
	v, ok, err := e.index.Get(h)
	if err != nil && strict {
		return false, fmt.Errorf("core: loading prime PPV of node %d: %w", h, err)
	}
	if err != nil || !ok {
		if v, _, err = prime.ComputePPV(adj, h, e.hubs, e.opts.primeOptions()); err != nil {
			return true, fmt.Errorf("core: prime PPV of node %d: %w", h, err)
		}
		computed = true
	}
	acc.StageVectorExtension(v, scale, owner, e.opts.Alpha)
	return computed, nil
}

// expandStat counts what one expansion did with its frontier.
type expandStat struct {
	expanded, skipped int
	// unowned lists the frontier hubs outside the expanding partition.
	unowned []graph.NodeID
}

// expand runs one scheduled-approximation iteration over b.frontier: every
// frontier hub that part owns and whose prefix weight is above delta is
// extended by prefix/alpha times its extension vector. Hubs are staged in the
// frontier's ascending order and folded into b.inc with one Combine, so the
// per-node sums are reproducible bit for bit. The hub entries of the
// increment then become b.frontier for the next iteration. deps, when
// non-nil, collects the expanded hubs. With strict, a failed hub read aborts
// the expansion with its error; otherwise the hub is recomputed.
func (e *Engine) expand(b *queryBufs, part Partition, deps map[graph.NodeID]struct{}, strict bool) (expandStat, error) {
	var st expandStat
	b.inc.Reset()
	for _, fe := range b.frontier {
		if !e.hubs.Contains(fe.hub) || !part.Owns(fe.hub) {
			st.unowned = append(st.unowned, fe.hub)
			continue
		}
		if fe.prefix <= e.opts.Delta {
			st.skipped++
			continue
		}
		if _, err := e.stageHub(&b.inc, e.g, fe.hub, fe.prefix/e.opts.Alpha, fe.hub, strict); err != nil {
			if strict {
				return st, err
			}
			st.skipped++
			continue
		}
		if deps != nil {
			deps[fe.hub] = struct{}{}
		}
		st.expanded++
	}
	b.inc.Combine()
	b.nextFrontier = e.appendFrontier(b.nextFrontier[:0], b.inc.Entries(), noOwner)
	b.frontier, b.nextFrontier = b.nextFrontier, b.frontier
	return st, nil
}

// appendFrontier appends the hub entries of entries (sorted by node) to dst
// with their prefix weights, so the frontier is born sorted. The entry of
// root first loses alpha: the empty tour at the query node must not be
// extended, because an extension has to advance the walk.
func (e *Engine) appendFrontier(dst []frontierEntry, entries []sparse.Entry, root graph.NodeID) []frontierEntry {
	for _, en := range entries {
		if !e.hubs.Contains(en.Node) {
			continue
		}
		w := en.Score
		if en.Node == root {
			w -= e.opts.Alpha
		}
		if w > 0 {
			dst = append(dst, frontierEntry{hub: en.Node, prefix: w})
		}
	}
	return dst
}
