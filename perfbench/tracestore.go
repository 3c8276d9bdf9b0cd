package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"fastppv/internal/core"
	"fastppv/internal/graph"
	"fastppv/internal/ppvindex"
	"fastppv/internal/sparse"
)

// spanKind names what a recorded span timed.
type spanKind uint8

const (
	spanGet spanKind = iota
	spanGetView
	spanPut
	spanGraphLog
	spanCommit
	spanCompact
	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{"get", "get_view", "put", "graph_log", "commit", "compact"}

// span is one timed call into the index store. Times are nanoseconds since
// the recorder's epoch, so spans and client requests share one clock.
type span struct {
	kind  spanKind
	hub   graph.NodeID
	start int64
	dur   int64
}

// recorder keeps spans in memory while it is on.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(kind spanKind, hub graph.NodeID, start int64) {
	end := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{kind: kind, hub: hub, start: start, dur: end - start})
	r.mu.Unlock()
}

// take returns the spans recorded so far, ordered by start time.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	sortSpans(out)
	return out
}

// diskIndex is every optional interface fastppv's disk store implements on
// top of core.IndexStore. The engine and the server discover each one by a
// type assertion, so a wrapper that dropped any of them would serve a
// different program.
type diskIndex interface {
	core.IndexStore
	ppvindex.ViewGetter
	core.UpdateCommitter
	core.GraphUpdateLogger
	WarmHubs(hubs []graph.NodeID) int
	BlockCacheStats() (ppvindex.BlockCacheStats, bool)
	DurabilityStats() (ppvindex.DurabilityStats, bool)
	MmapActive() bool
	Compact() (ppvindex.CompactionResult, error)
}

// wrapStore returns a store that forwards every call to inner, timing Get,
// GetView, Put, the graph-log append, commit and compaction while rec is on.
// The wrapper implements exactly the optional interfaces inner implements; a
// store that implements only some of them is refused rather than served by a
// wrapper that would hide the rest.
func wrapStore(inner core.IndexStore, rec *recorder) (core.IndexStore, error) {
	base := tracedStore{inner: inner, rec: rec}
	if d, ok := inner.(diskIndex); ok {
		ts := &tracedDiskStore{tracedStore: base, disk: d}
		st, _ := d.DurabilityStats()
		ts.walHeader = st.LogBytes
		ts.lastWAL, ts.lastCompactions = st.LogBytes, st.Compactions
		return ts, nil
	}
	_, a := inner.(ppvindex.ViewGetter)
	_, b := inner.(core.UpdateCommitter)
	_, c := inner.(core.GraphUpdateLogger)
	_, d := inner.(interface{ WarmHubs([]graph.NodeID) int })
	_, e := inner.(interface {
		BlockCacheStats() (ppvindex.BlockCacheStats, bool)
	})
	_, f := inner.(interface {
		DurabilityStats() (ppvindex.DurabilityStats, bool)
	})
	_, g := inner.(interface{ MmapActive() bool })
	_, h := inner.(interface {
		Compact() (ppvindex.CompactionResult, error)
	})
	if a || b || c || d || e || f || g || h {
		return nil, errors.New("index store implements only part of the disk store interfaces; the tracing wrapper cannot forward them transparently")
	}
	return &base, nil
}

// tracedStore wraps a store with no optional interfaces (the in-memory index).
type tracedStore struct {
	inner core.IndexStore
	rec   *recorder
}

func (s *tracedStore) Get(h graph.NodeID) (sparse.Vector, bool, error) {
	if !s.rec.on.Load() {
		return s.inner.Get(h)
	}
	t := s.rec.now()
	v, ok, err := s.inner.Get(h)
	s.rec.add(spanGet, h, t)
	return v, ok, err
}

func (s *tracedStore) Put(h graph.NodeID, ppv sparse.Vector) error {
	if !s.rec.on.Load() {
		return s.inner.Put(h, ppv)
	}
	t := s.rec.now()
	err := s.inner.Put(h, ppv)
	s.rec.add(spanPut, h, t)
	return err
}

func (s *tracedStore) Has(h graph.NodeID) bool { return s.inner.Has(h) }
func (s *tracedStore) Hubs() []graph.NodeID    { return s.inner.Hubs() }
func (s *tracedStore) Len() int                { return s.inner.Len() }
func (s *tracedStore) SizeBytes() int64        { return s.inner.SizeBytes() }

// tracedDiskStore wraps fastppv's disk store. Besides timing calls it counts
// the bytes each committed update batch adds to the update log and to the
// graph-mutation log.
type tracedDiskStore struct {
	tracedStore
	disk diskIndex

	// logMu guards the per-batch log accounting below.
	logMu           sync.Mutex
	walHeader       int64
	lastWAL         int64
	lastCompactions int64
	walBytes        []int64
	graphLogBytes   []int64
	pendingGraphLog int64
}

func (s *tracedDiskStore) GetView(h graph.NodeID) (ppvindex.HubRecordView, bool, error) {
	if !s.rec.on.Load() {
		return s.disk.GetView(h)
	}
	t := s.rec.now()
	v, ok, err := s.disk.GetView(h)
	s.rec.add(spanGetView, h, t)
	return v, ok, err
}

func (s *tracedDiskStore) AppendGraphUpdate(upd core.GraphUpdate) error {
	before, _ := s.disk.DurabilityStats()
	t := s.rec.now()
	err := s.disk.AppendGraphUpdate(upd)
	if s.rec.on.Load() {
		s.rec.add(spanGraphLog, 0, t)
	}
	after, _ := s.disk.DurabilityStats()
	s.logMu.Lock()
	s.pendingGraphLog = after.GraphLogBytes - before.GraphLogBytes
	s.logMu.Unlock()
	return err
}

// CommitUpdates measures the batch's update-log bytes just before the
// commit: between a batch's first Put and its commit no compaction can reset
// the log (compaction refuses to run over uncommitted frames), so the batch
// grew the log from the size at the previous commit, or from a bare header
// if a compaction ran in between.
func (s *tracedDiskStore) CommitUpdates() error {
	pre, _ := s.disk.DurabilityStats()
	t := s.rec.now()
	err := s.disk.CommitUpdates()
	if s.rec.on.Load() {
		s.rec.add(spanCommit, 0, t)
	}
	s.logMu.Lock()
	from := s.lastWAL
	if pre.Compactions != s.lastCompactions {
		from = s.walHeader
	}
	if err == nil {
		s.walBytes = append(s.walBytes, pre.LogBytes-from)
		s.graphLogBytes = append(s.graphLogBytes, s.pendingGraphLog)
	}
	s.lastWAL, s.lastCompactions = pre.LogBytes, pre.Compactions
	s.pendingGraphLog = 0
	s.logMu.Unlock()
	return err
}

func (s *tracedDiskStore) Compact() (ppvindex.CompactionResult, error) {
	t := s.rec.now()
	res, err := s.disk.Compact()
	if s.rec.on.Load() {
		s.rec.add(spanCompact, 0, t)
	}
	return res, err
}

// logBytes returns the per-batch update-log and graph-log byte counts.
func (s *tracedDiskStore) logBytes() (wal, glog []int64) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return append([]int64(nil), s.walBytes...), append([]int64(nil), s.graphLogBytes...)
}

func (s *tracedDiskStore) WarmHubs(hubs []graph.NodeID) int { return s.disk.WarmHubs(hubs) }
func (s *tracedDiskStore) BlockCacheStats() (ppvindex.BlockCacheStats, bool) {
	return s.disk.BlockCacheStats()
}
func (s *tracedDiskStore) DurabilityStats() (ppvindex.DurabilityStats, bool) {
	return s.disk.DurabilityStats()
}
func (s *tracedDiskStore) MmapActive() bool { return s.disk.MmapActive() }
