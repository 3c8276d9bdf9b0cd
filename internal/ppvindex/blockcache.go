package ppvindex

import (
	"container/list"
	"sync"

	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// BlockCache is a sharded, byte-budgeted LRU cache of hub records layered
// over a slower view-serving index (in practice a DiskIndex). It is the
// serving-side answer to the paper's Sect. 5.3/6.3 disk-resident
// configuration: the full hub index stays on disk and each fetched hub costs
// one random access, but a skewed online workload re-fetches a small set of
// popular hubs over and over — the cache keeps that hot working set in
// memory under an explicit byte budget, so indexes larger than RAM stay
// servable.
//
// Blocks are retained as the raw 12-byte encoded entry payload, the same flat
// layout as the disk record, and GetView serves cache hits as zero-copy,
// zero-allocation views over the retained buffer. The retained buffer is an
// owned copy, never an alias of the inner index's mapping, so cached views
// stay valid across compaction swaps and need no pin. Get decodes the
// retained payload per call; it is the boundary path, not the query hot loop.
//
// Three properties matter under a concurrent server:
//
//   - sharding: hubs hash onto independent mutex+LRU shards, so cache lookups
//     on the query hot path do not serialize on one lock;
//   - singleflight: concurrent reads of the same uncached hub perform one
//     inner read and share the block, preventing a miss stampede on a hub
//     that just became popular (or was just invalidated);
//   - targeted invalidation: when ApplyUpdate recomputes a hub's prime PPV,
//     Invalidate evicts exactly that hub's block, so the next read fetches
//     the fresh record instead of serving the stale one.
type BlockCache struct {
	inner  ViewIndex
	shards []*blockShard
	budget int64
}

// ViewIndex is an Index that also serves its records as views: what a
// BlockCache needs underneath it.
type ViewIndex interface {
	Index
	ViewGetter
}

type blockShard struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	lru    *list.List // front = most recently used; values are *blockEntry
	byHub  map[graph.NodeID]*list.Element
	// flights holds the in-progress load per hub; later arrivals block on the
	// call instead of issuing their own inner read.
	flights map[graph.NodeID]*blockFlight

	hits, misses, loads, evictions, invalidations, coalesced int64
}

type blockEntry struct {
	hub   graph.NodeID
	raw   []byte // the flat encoded entry payload
	bytes int64
}

type blockFlight struct {
	done chan struct{}
	raw  []byte
	ok   bool
	err  error
}

// BlockCacheStats is a point-in-time summary of the cache, aggregated over
// shards.
type BlockCacheStats struct {
	// Hits are reads (Get or GetView) answered from a cached block; Misses
	// went to the inner index (Coalesced of them by sharing another read's
	// in-flight load).
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	// Loads counts actual inner-index reads, i.e. Misses - Coalesced that
	// found the hub (plus loads whose block was too large to retain).
	Loads         int64 `json:"loads"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	Entries       int   `json:"entries"`
	Bytes         int64 `json:"bytes"`
	BudgetBytes   int64 `json:"budget_bytes"`
}

// blockFixedBytes is the per-block overhead on top of its payload: the list
// element, the entry struct and the directory slot.
const blockFixedBytes = 128

// NewBlockCache wraps inner with a cache of budgetBytes total budget split
// evenly across numShards shards. Non-positive budget or shard count fall
// back to defaults (64 MiB, 16 shards).
func NewBlockCache(inner ViewIndex, budgetBytes int64, numShards int) *BlockCache {
	if budgetBytes <= 0 {
		budgetBytes = 64 << 20
	}
	if numShards <= 0 {
		numShards = 16
	}
	c := &BlockCache{
		inner:  inner,
		shards: make([]*blockShard, numShards),
		budget: budgetBytes,
	}
	perShard := budgetBytes / int64(numShards)
	if perShard < 1 {
		perShard = 1
	}
	for i := range c.shards {
		c.shards[i] = &blockShard{
			budget:  perShard,
			lru:     list.New(),
			byHub:   make(map[graph.NodeID]*list.Element),
			flights: make(map[graph.NodeID]*blockFlight),
		}
	}
	return c
}

// shardFor picks the shard of h with a fixed multiplicative mixer
// (Fibonacci hashing). Hub ids come from the hub-selection stage, not from
// untrusted input, so a seeded hash buys nothing here and its setup cost
// lands on every cache probe of the serving hot path.
func (c *BlockCache) shardFor(h graph.NodeID) *blockShard {
	x := uint64(uint32(h)) * 0x9E3779B97F4A7C15
	return c.shards[(x>>32)%uint64(len(c.shards))]
}

// Get returns the prime PPV of h, decoded from the cached block. On a miss
// the block is loaded from the inner index exactly once, no matter how many
// concurrent reads race for it, then retained under the byte budget.
func (c *BlockCache) Get(h graph.NodeID) (sparse.Vector, bool, error) {
	raw, ok, err := c.getRaw(h)
	if err != nil || !ok {
		return nil, ok, err
	}
	return sparse.DecodeVector(raw), true, nil
}

// GetView returns a zero-copy view of the record of h, from cache when
// possible. Cache hits are allocation-free: the view aliases the retained
// payload copy, which stays valid even if the entry is later evicted,
// invalidated, or the inner index generation is compacted away.
func (c *BlockCache) GetView(h graph.NodeID) (HubRecordView, bool, error) {
	raw, ok, err := c.getRaw(h)
	if err != nil || !ok {
		return HubRecordView{}, ok, err
	}
	return NewHubRecordView(h, raw, nil), true, nil
}

// getRaw resolves the flat encoded payload of h through the cache, loading
// it from the inner index exactly once per miss. The payload handed to
// callers is an owned copy of the inner view's bytes, taken while the inner
// view's pin was held, so it never dangles into an unmapped generation.
//
// Membership is resolved from the inner index's in-memory directory first: a
// read of an unindexed node (every non-hub query node) is a map lookup,
// never a flight registration, and does not distort miss stats.
func (c *BlockCache) getRaw(h graph.NodeID) ([]byte, bool, error) {
	if !c.inner.Has(h) {
		return nil, false, nil
	}
	s := c.shardFor(h)
	s.mu.Lock()
	if el, ok := s.byHub[h]; ok {
		s.hits++
		s.lru.MoveToFront(el)
		raw := el.Value.(*blockEntry).raw
		s.mu.Unlock()
		return raw, true, nil
	}
	s.misses++
	if fl, ok := s.flights[h]; ok {
		s.coalesced++
		s.mu.Unlock()
		<-fl.done
		return fl.raw, fl.ok, fl.err
	}
	fl := &blockFlight{done: make(chan struct{})}
	s.flights[h] = fl
	s.mu.Unlock()

	view, ok, err := c.inner.GetView(h)
	if err == nil && ok {
		fl.raw = append([]byte{}, view.EntryBytes()...)
		view.Release()
	}
	fl.ok, fl.err = ok, err

	s.mu.Lock()
	s.loads++
	// The load may race with an Invalidate for the same hub (an update
	// rewrote the record while we were reading the old one). Invalidate
	// removes the flight from the map to mark it stale; only a still
	// registered flight may populate the cache.
	if cur, registered := s.flights[h]; registered && cur == fl {
		delete(s.flights, h)
		if fl.err == nil && fl.ok {
			s.insertLocked(h, fl.raw)
		}
	}
	s.mu.Unlock()
	close(fl.done)
	return fl.raw, fl.ok, fl.err
}

// insertLocked stores a block and evicts LRU blocks until the shard is back
// under budget. Blocks larger than a whole shard budget are served but not
// retained.
func (s *blockShard) insertLocked(h graph.NodeID, raw []byte) {
	nbytes := int64(blockFixedBytes + len(raw))
	if nbytes > s.budget {
		return
	}
	if el, ok := s.byHub[h]; ok {
		// A concurrent load for the same hub already filled the slot (both
		// started before either registered); keep the newer value.
		ent := el.Value.(*blockEntry)
		s.bytes += nbytes - ent.bytes
		ent.raw, ent.bytes = raw, nbytes
		s.lru.MoveToFront(el)
	} else {
		s.byHub[h] = s.lru.PushFront(&blockEntry{hub: h, raw: raw, bytes: nbytes})
		s.bytes += nbytes
	}
	for s.bytes > s.budget {
		back := s.lru.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*blockEntry)
		s.lru.Remove(back)
		delete(s.byHub, ent.hub)
		s.bytes -= ent.bytes
		s.evictions++
	}
}

// Invalidate evicts the blocks of the given hubs (typically the hubs an
// incremental update recomputed) and reports how many cached blocks were
// dropped. In-flight loads for those hubs are marked stale so they cannot
// re-populate the cache with the pre-update record.
func (c *BlockCache) Invalidate(hubs []graph.NodeID) int {
	dropped := 0
	for _, h := range hubs {
		s := c.shardFor(h)
		s.mu.Lock()
		if el, ok := s.byHub[h]; ok {
			ent := el.Value.(*blockEntry)
			s.lru.Remove(el)
			delete(s.byHub, h)
			s.bytes -= ent.bytes
			s.invalidations++
			dropped++
		}
		delete(s.flights, h)
		s.mu.Unlock()
	}
	return dropped
}

// Has, Hubs, Len and SizeBytes delegate to the inner index: the cache changes
// where blocks are read from, not what is indexed.
func (c *BlockCache) Has(h graph.NodeID) bool { return c.inner.Has(h) }
func (c *BlockCache) Hubs() []graph.NodeID    { return c.inner.Hubs() }
func (c *BlockCache) Len() int                { return c.inner.Len() }
func (c *BlockCache) SizeBytes() int64        { return c.inner.SizeBytes() }

// Stats aggregates the per-shard counters.
func (c *BlockCache) Stats() BlockCacheStats {
	st := BlockCacheStats{BudgetBytes: c.budget}
	for _, s := range c.shards {
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Coalesced += s.coalesced
		st.Loads += s.loads
		st.Evictions += s.evictions
		st.Invalidations += s.invalidations
		st.Entries += len(s.byHub)
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}
