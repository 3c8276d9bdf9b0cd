// Package ppvindex stores the precomputed building blocks of FastPPV's
// offline phase: the prime PPV of every hub node (Algorithm 1 of the paper).
// Two implementations are provided: an in-memory index for memory-resident
// graphs and a disk-backed index with random access for the disk-based
// configuration of Sect. 5.3, where fetching the prime PPV of a hub during
// online query processing costs one random read.
package ppvindex

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// Index is the read interface used by online query processing.
type Index interface {
	// Get returns the stored prime PPV of hub h. The boolean is false when h
	// is not indexed. Implementations may return shared data; callers must
	// not modify the returned vector.
	Get(h graph.NodeID) (sparse.Vector, bool, error)
	// Has reports whether h is indexed without materializing the vector.
	Has(h graph.NodeID) bool
	// Hubs returns the indexed hub nodes in ascending order.
	Hubs() []graph.NodeID
	// Len returns the number of indexed hubs.
	Len() int
	// SizeBytes estimates the storage footprint of the index payload, used by
	// the offline-space experiments (Fig. 7b, 9, 11, 15).
	SizeBytes() int64
}

// Writer is the write interface used by offline precomputation.
type Writer interface {
	// Put stores the prime PPV of hub h, replacing any previous entry.
	Put(h graph.NodeID, ppv sparse.Vector) error
}

// entryBytes is the storage cost per (node, score) pair in the binary disk
// layout: sparse's encoded entry.
const entryBytes = sparse.EncodedEntrySize

// perHubOverheadBytes is the fixed per-hub cost in the binary layout: the hub
// id and the entry count.
const perHubOverheadBytes = 4 + 4

// MemIndex is an in-memory PPV index. It is safe for concurrent use.
type MemIndex struct {
	mu   sync.RWMutex
	ppvs map[graph.NodeID]sparse.Vector
	// count mirrors len(ppvs) so Has can answer "empty" without taking the
	// read lock. MemIndex doubles as the overlay of a disk store, where the
	// serving hot path probes it once per record read and it is empty except
	// in the window between an incremental update and the next compaction.
	count atomic.Int64
}

// NewMemIndex returns an empty in-memory index.
func NewMemIndex() *MemIndex {
	return &MemIndex{ppvs: make(map[graph.NodeID]sparse.Vector)}
}

// Put stores the prime PPV of hub h. The vector is stored by reference; the
// caller must not modify it afterwards.
func (m *MemIndex) Put(h graph.NodeID, ppv sparse.Vector) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ppvs[h] = ppv
	m.count.Store(int64(len(m.ppvs)))
	return nil
}

// Get returns the stored prime PPV of h.
func (m *MemIndex) Get(h graph.NodeID) (sparse.Vector, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	v, ok := m.ppvs[h]
	return v, ok, nil
}

// Has reports whether h is indexed. An empty index answers from the atomic
// count alone, keeping the common empty-overlay probe off the lock.
func (m *MemIndex) Has(h graph.NodeID) bool {
	if m.count.Load() == 0 {
		return false
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.ppvs[h]
	return ok
}

// Hubs returns the indexed hubs in ascending order.
func (m *MemIndex) Hubs() []graph.NodeID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]graph.NodeID, 0, len(m.ppvs))
	for h := range m.ppvs {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of indexed hubs.
func (m *MemIndex) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.ppvs)
}

// SizeBytes estimates the payload size as if it were serialized to the binary
// disk layout, so that in-memory and on-disk experiments report comparable
// space numbers.
func (m *MemIndex) SizeBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var total int64
	for _, v := range m.ppvs {
		total += perHubOverheadBytes + int64(v.NonZeros())*entryBytes
	}
	return total
}

// TotalEntries returns the total number of stored (node, score) pairs.
func (m *MemIndex) TotalEntries() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var total int64
	for _, v := range m.ppvs {
		total += int64(v.NonZeros())
	}
	return total
}

// Stats summarizes an index for experiment reports.
type Stats struct {
	Hubs         int
	TotalEntries int64
	SizeBytes    int64
}

// StatsOf computes Stats for any Index. For disk indexes the entry count is
// derived from the payload size.
func StatsOf(idx Index) Stats {
	s := Stats{Hubs: idx.Len(), SizeBytes: idx.SizeBytes()}
	if m, ok := idx.(*MemIndex); ok {
		s.TotalEntries = m.TotalEntries()
	} else if s.Hubs > 0 {
		s.TotalEntries = (s.SizeBytes - int64(s.Hubs)*perHubOverheadBytes) / entryBytes
	}
	return s
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("%d hubs, %d entries, %.2f MB", s.Hubs, s.TotalEntries, float64(s.SizeBytes)/(1<<20))
}
