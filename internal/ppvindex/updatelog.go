package ppvindex

import (
	"bytes"
	"encoding/binary"
	"errors"

	"fastppv/internal/framelog"
	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// The update log is a framelog (see that package for the frame layout, the
// torn-tail rule and the binding rule) with this header binding and payload:
//
//	header (24 bytes): magic 'F','P','L','1', version 1, then
//	  baseBytes uint64 size of the base index file this log belongs to
//	  baseHubs  uint32 hub count of that base file
//	  reserved  uint32
//	payload: one hub record in the disk-index record layout
//	  (hub, count, count x { node, score })
//
// The log is the durability side-channel of a finalized disk index: every
// post-finalize Put (an incremental update recomputing a hub's prime PPV)
// appends one frame, and a batch of frames is committed with a single fsync.
// On open the frames are replayed in order; replay is idempotent — applying a
// frame whose record is already in the base index rewrites the same value —
// which is what makes the compaction commit protocol (rename the rewritten
// base first, reset the log second) crash-consistent at every point.
//
// The binding ties the log to one specific base file: a log left behind by a
// crashed rebuild or an interrupted compaction is reset instead of replayed,
// so it can never replay foreign records onto a base they do not belong to.
const (
	logMagic         = uint32('F') | uint32('P')<<8 | uint32('L')<<16 | uint32('1')<<24
	logVersion       = 1
	logHeaderBytes   = 24
	logFrameOverhead = framelog.FrameOverhead
	// logBoundBytes is the part of the binding that is compared on open; the
	// rest is reserved.
	logBoundBytes = 12
)

// ErrCompactionInProgress reports that a compaction of a disk index is
// already running; at most one runs at a time.
var ErrCompactionInProgress = errors.New("ppvindex: compaction already in progress")

// ErrUpdateInFlight reports that a compaction was requested while an
// incremental-update batch had appended but not yet committed log frames;
// compacting mid-batch would make half the batch durable, so the caller
// should retry once the update commits.
var ErrUpdateInFlight = errors.New("ppvindex: update batch in flight, retry compaction after it commits")

// UpdateLog is an append-only, CRC-framed record log alongside a disk index.
// Append buffers frames; Commit flushes and fsyncs them as one batch, and
// Close rolls back frames of a batch that never committed (ApplyUpdate
// reports failure exactly when the commit does not complete, and replaying
// half a batch would restore hub PPVs of a graph change that officially never
// happened). It is not safe for concurrent use; callers serialize access (the
// disk store's mutex).
type UpdateLog struct{ *framelog.Log }

// updateLogFormat is the FPL1 header bound to one base index file.
func updateLogFormat(baseBytes int64, baseHubs int) framelog.Format {
	bind := make([]byte, logHeaderBytes-8)
	binary.LittleEndian.PutUint64(bind[0:], uint64(baseBytes))
	binary.LittleEndian.PutUint32(bind[8:], uint32(baseHubs))
	return framelog.Format{
		Name: "update log", Magic: logMagic, Version: logVersion, Binding: bind,
		Bound:        func(stored []byte) bool { return bytes.HasPrefix(stored, bind[:logBoundBytes]) },
		ErrBadFormat: ErrBadIndexFormat,
	}
}

// OpenUpdateLog opens (or creates) the update log at path and replays every
// valid frame through replay, in append order. baseBytes and baseHubs
// identify the base index file being served: a log bound to a different base
// (a leftover from a crashed rebuild, or one whose compaction renamed the
// base but died before the log reset) is discarded — reset to empty — instead
// of replayed. A torn tail is truncated; a foreign or corrupt header fails
// with ErrBadIndexFormat. The returned log is positioned for appending.
func OpenUpdateLog(path string, baseBytes int64, baseHubs int, replay func(h graph.NodeID, ppv sparse.Vector) error) (*UpdateLog, error) {
	fl, err := framelog.Open(path, updateLogFormat(baseBytes, baseHubs), func(payload []byte) error {
		h, ppv, err := decodeRecordPayload(payload)
		if err != nil {
			return framelog.ErrBadPayload
		}
		if replay == nil {
			return nil
		}
		return replay(h, ppv)
	})
	if err != nil {
		return nil, err
	}
	return &UpdateLog{fl}, nil
}

// Append buffers one update frame. It does not hit the disk until Commit.
func (l *UpdateLog) Append(h graph.NodeID, ppv sparse.Vector) error {
	return l.Log.Append(encodeRecord(h, ppv))
}

// Reset empties the log back to a bare header (fsync'd), re-bound to the
// given base file. Compaction calls it after the rewritten base index has
// been renamed into place: from that point the base owns every logged update,
// and an empty log bound to the new base is the durable record of that fact.
func (l *UpdateLog) Reset(baseBytes int64, baseHubs int) error {
	return l.Log.Reset(updateLogFormat(baseBytes, baseHubs).Binding)
}

// DurabilityStats summarizes the durable-update machinery of a disk-backed
// index store: the in-memory overlay of rewritten hubs and the update log
// behind it. The serving layer's /v1/stats exposes these.
type DurabilityStats struct {
	// LogEnabled reports whether post-finalize Puts are persisted to an
	// update log (false means the overlay is volatile, the pre-durability
	// behaviour).
	LogEnabled bool `json:"log_enabled"`
	// OverlayHubs is the number of hubs whose current prime PPV lives in the
	// in-memory overlay rather than the base file.
	OverlayHubs int `json:"overlay_hubs"`
	// LogBytes and LogRecords size the update log (LogBytes includes the
	// 24-byte file header).
	LogBytes   int64 `json:"log_bytes"`
	LogRecords int64 `json:"log_records"`
	// GraphLogEnabled reports whether committed graph updates themselves are
	// persisted to a graph-mutation log (false means a restart reverts the
	// graph to the original -graph file even though the updated hub PPVs
	// replay from the update log).
	GraphLogEnabled bool `json:"graph_log_enabled"`
	// GraphLogBytes and GraphLogRecords size the graph-mutation log;
	// GraphLogRecords equals the index epoch the store would replay to.
	GraphLogBytes   int64 `json:"graph_log_bytes,omitempty"`
	GraphLogRecords int64 `json:"graph_log_records,omitempty"`
	// Compactions counts completed compactions since the store was opened.
	Compactions int64 `json:"compactions"`
}

// CompactionResult reports what one compaction did.
type CompactionResult struct {
	// TotalHubs is the number of hubs in the rewritten index; RewrittenHubs
	// of them took their record from the overlay (i.e. had pending updates).
	TotalHubs     int `json:"total_hubs"`
	RewrittenHubs int `json:"rewritten_hubs"`
	// LogRecordsFolded and LogBytesFreed describe the update log that the
	// rewrite absorbed.
	LogRecordsFolded int64 `json:"log_records_folded"`
	LogBytesFreed    int64 `json:"log_bytes_freed"`
	// IndexBytes is the size of the rewritten index file.
	IndexBytes int64 `json:"index_bytes"`
	// DurationMS is the wall time of the compaction.
	DurationMS float64 `json:"duration_ms"`
}
