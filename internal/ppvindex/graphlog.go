package ppvindex

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"fastppv/internal/framelog"
	"fastppv/internal/graph"
)

// The graph-mutation log is a framelog (see that package for the frame
// layout, the torn-tail rule and the binding rule) with this header binding
// and payload:
//
//	header (32 bytes): magic 'F','P','G','1', version 1, then
//	  nodes    uint64 node count of the base graph the mutations apply to
//	  edges    uint64 edge count of that base graph
//	  flags    uint32 bit 0: base graph is directed
//	  reserved uint32
//	payload:
//	  numNodes     uint32  GraphMutation.NumNodes (0 = unchanged)
//	  addedCount   uint32
//	  removedCount uint32
//	  addedCount   x { from uint32, to uint32 }
//	  removedCount x { from uint32, to uint32 }
//
// The log is the durability side of incremental *graph* maintenance, the
// counterpart of the update log's durable PPVs: the update log persists the
// recomputed hub records of each batch, this log persists the batch itself.
// Without it a restart reloads the original graph file, so every answer that
// touches the graph on the fly (non-hub roots, freshly recomputed hubs'
// neighbours) silently reverts while the index still serves the updated PPVs.
// One frame is appended per committed GraphUpdate, in ApplyUpdate order, and
// replaying the frames on open reproduces the exact graph — and, because each
// frame is one epoch bump, the exact index epoch — the process served before
// it stopped.
//
// The binding is the cheap identity of the base graph available without
// hashing the whole edge set: a log found next to a different graph is reset
// instead of replayed, so swapping the -graph file does not replay foreign
// mutations onto it. Unlike the update log, this log is never folded away by
// index compaction — the graph file on disk stays the original, so the
// mutations remain the only durable record of the current graph.
const (
	graphLogMagic       = uint32('F') | uint32('P')<<8 | uint32('G')<<16 | uint32('1')<<24
	graphLogVersion     = 1
	graphLogHeaderBytes = 32
	graphEdgeBytes      = 8
	graphFrameMinBytes  = 12 // numNodes + addedCount + removedCount
)

// GraphMutation is one logged batch of graph changes, mirroring
// core.GraphUpdate without importing it (core depends on this package).
type GraphMutation struct {
	AddedEdges   []graph.Edge
	RemovedEdges []graph.Edge
	NumNodes     int
}

// GraphLogBinding identifies the base graph a mutation log belongs to.
type GraphLogBinding struct {
	Nodes    int
	Edges    int
	Directed bool
}

// GraphLog is an append-only, CRC-framed log of graph-update batches kept
// alongside a disk index. Append buffers frames; Commit flushes and fsyncs
// them, and Close rolls back frames of a batch whose commit never completed:
// flushing them would hand the restarted replica a graph — and an epoch —
// whose PPV half was never made durable, the one mismatch direction the
// commit order exists to prevent. Like UpdateLog it is not safe for
// concurrent use; the disk store's mutex serializes access. After a clean
// open Records equals the index epoch of the replayed state.
type GraphLog struct{ *framelog.Log }

// OpenGraphLog opens (or creates) the graph-mutation log at path and replays
// every valid frame through replay, in append order. bind identifies the base
// graph being served; a log bound to a different graph is reset to empty
// instead of replayed. A torn tail is truncated; a foreign or corrupt header
// fails with ErrBadIndexFormat. The returned log is positioned for appending.
func OpenGraphLog(path string, bind GraphLogBinding, replay func(GraphMutation) error) (*GraphLog, error) {
	binding := make([]byte, graphLogHeaderBytes-8)
	binary.LittleEndian.PutUint64(binding[0:], uint64(bind.Nodes))
	binary.LittleEndian.PutUint64(binding[8:], uint64(bind.Edges))
	if bind.Directed {
		binding[16] = 1
	}
	format := framelog.Format{
		Name: "graph log", Magic: graphLogMagic, Version: graphLogVersion, Binding: binding,
		// Counts must match exactly; of the flags only the directed bit binds.
		Bound: func(stored []byte) bool {
			return bytes.HasPrefix(stored, binding[:16]) && len(stored) > 16 && stored[16]&1 == binding[16]
		},
		ErrBadFormat: ErrBadIndexFormat,
	}
	fl, err := framelog.Open(path, format, func(payload []byte) error {
		m, err := decodeMutation(payload)
		if err != nil {
			return framelog.ErrBadPayload
		}
		if replay == nil {
			return nil
		}
		return replay(m)
	})
	if err != nil {
		return nil, err
	}
	return &GraphLog{fl}, nil
}

// encodeMutation serializes one batch as a frame payload.
func encodeMutation(m GraphMutation) []byte {
	buf := make([]byte, graphFrameMinBytes+(len(m.AddedEdges)+len(m.RemovedEdges))*graphEdgeBytes)
	binary.LittleEndian.PutUint32(buf[0:], uint32(m.NumNodes))
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(m.AddedEdges)))
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(m.RemovedEdges)))
	at := graphFrameMinBytes
	for _, lst := range [2][]graph.Edge{m.AddedEdges, m.RemovedEdges} {
		for _, ed := range lst {
			binary.LittleEndian.PutUint32(buf[at:], uint32(ed.From))
			binary.LittleEndian.PutUint32(buf[at+4:], uint32(ed.To))
			at += graphEdgeBytes
		}
	}
	return buf
}

// decodeMutation parses a frame payload produced by encodeMutation. The
// declared edge counts must exactly cover the buffer.
func decodeMutation(buf []byte) (GraphMutation, error) {
	var m GraphMutation
	if len(buf) < graphFrameMinBytes {
		return m, fmt.Errorf("%w: graph mutation payload of %d bytes is shorter than its header", ErrBadIndexFormat, len(buf))
	}
	m.NumNodes = int(binary.LittleEndian.Uint32(buf[0:]))
	added := int(binary.LittleEndian.Uint32(buf[4:]))
	removed := int(binary.LittleEndian.Uint32(buf[8:]))
	if added < 0 || removed < 0 || graphFrameMinBytes+(added+removed)*graphEdgeBytes != len(buf) {
		return m, fmt.Errorf("%w: graph mutation claims %d+%d edges in a %d-byte payload", ErrBadIndexFormat, added, removed, len(buf))
	}
	decode := func(n int, at int) ([]graph.Edge, int) {
		if n == 0 {
			return nil, at
		}
		out := make([]graph.Edge, n)
		for i := range out {
			out[i] = graph.Edge{
				From: graph.NodeID(binary.LittleEndian.Uint32(buf[at:])),
				To:   graph.NodeID(binary.LittleEndian.Uint32(buf[at+4:])),
			}
			at += graphEdgeBytes
		}
		return out, at
	}
	at := graphFrameMinBytes
	m.AddedEdges, at = decode(added, at)
	m.RemovedEdges, _ = decode(removed, at)
	return m, nil
}

// Append buffers one mutation frame. It does not hit the disk until Commit.
func (l *GraphLog) Append(m GraphMutation) error { return l.Log.Append(encodeMutation(m)) }
