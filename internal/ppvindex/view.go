package ppvindex

import (
	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// HubRecordView is a zero-copy read-only view of one hub's stored prime PPV:
// the record's entry payload in the flat 12-byte (node uint32, score float64)
// encoding, sorted by ascending node id. In mmap mode the view aliases the
// mapped file bytes directly; in pread mode (and for cache-retained views) it
// wraps an owned heap buffer. Either way no map is materialized — the query
// inner loop folds the entries straight into a sparse.Accumulator.
//
// Lifetime rules: a view is valid only for the index generation that produced
// it and must not outlive it. Views that alias an mmap'd index pin the
// mapping; callers must call Release exactly once, promptly, when done (a
// leaked view blocks that generation's Close, and with it compaction's swap).
// Release on a zero or unpinned view is a no-op. Views must be treated as
// immutable and must not be retained across calls that may close or compact
// the index.
type HubRecordView struct {
	hub     graph.NodeID
	data    []byte // len is a multiple of sparse.EncodedEntrySize
	release func()
}

// NewHubRecordView wraps an encoded entry payload as a view. The data slice
// is aliased, not copied; release (optional) is invoked by Release.
func NewHubRecordView(hub graph.NodeID, data []byte, release func()) HubRecordView {
	return HubRecordView{hub: hub, data: data, release: release}
}

// Hub returns the hub whose record this view exposes.
func (v HubRecordView) Hub() graph.NodeID { return v.hub }

// Len returns the number of (node, score) entries.
func (v HubRecordView) Len() int { return len(v.data) / sparse.EncodedEntrySize }

// Entry decodes the i-th entry. Entries are sorted by ascending node id.
func (v HubRecordView) Entry(i int) (graph.NodeID, float64) {
	return sparse.EncodedEntryAt(v.data, i)
}

// EntryBytes returns the raw encoded entry payload. The slice aliases the
// view's backing storage and follows the same lifetime rules as the view.
func (v HubRecordView) EntryBytes() []byte { return v.data }

// Vector decodes the view into a freshly allocated map-based Vector. It is
// the boundary conversion for callers that need random access; the hot path
// should use EntryBytes with sparse.Accumulator instead.
func (v HubRecordView) Vector() sparse.Vector { return sparse.DecodeVector(v.data) }

// Release returns the view's pin on its index generation, if it holds one.
// It must be called exactly once per pinned view; calling it on a zero or
// unpinned view is a no-op.
func (v HubRecordView) Release() {
	if v.release != nil {
		v.release()
	}
}

// ViewGetter is implemented by indexes that can serve hub records as
// zero-copy views. GetView mirrors Index.Get: the boolean is false when h is
// not indexed (callers then fall back to Get, which also covers overlay and
// recompute paths).
type ViewGetter interface {
	GetView(h graph.NodeID) (HubRecordView, bool, error)
}
