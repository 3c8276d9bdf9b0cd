package framelog_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"fastppv/internal/graph"
	"fastppv/internal/ppvindex"
	"fastppv/internal/querylog"
	"fastppv/internal/sparse"
)

// The golden digests pin the on-disk bytes of the FPL1, FPG1 and FPQ1 logs.
// They were computed by running the scripts below against the per-format log
// implementations that predate the shared frame core; any change to header,
// frame or payload encoding shows up here as a mismatch.
const (
	goldenUpdateLog    = "36be1c5bf9af140481d03d52dacc6faba644045a24a0fcdb5be5b22da7a8752a"
	goldenGraphLog     = "0cf6a8d27fc667e4fe63704d15f3fd63246398400b9de6c4d62daecd2cd43527"
	goldenQueryLog     = "92853637fd4faca68fb44d3822414d8043fe6c68eb6f7ce9c4b7da5a2da412bf"
	goldenQueryLogPrev = "0f86bf31a535ec27c33952f84e39fa43bb59a8138a1451a89a9d9939c2a0e34b"
)

func fileDigest(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestFormatsByteCompatible writes a fixed script of appends, commits, a
// reset, a rebinding and a rotation through each of the three logs and
// compares the resulting files against the golden digests.
func TestFormatsByteCompatible(t *testing.T) {
	dir := t.TempDir()

	// FPL1: two committed batches, a reset to a new base, a reopen that
	// replays and appends, and an uncommitted tail rolled back by Close.
	upath := filepath.Join(dir, "index.log")
	ul, err := ppvindex.OpenUpdateLog(upath, 4096, 12, nil)
	must(t, err)
	must(t, ul.Append(3, sparse.Vector{1: 0.5, 8: 0.25, 40: 1e-9}))
	must(t, ul.Append(9, sparse.Vector{2: 0.125}))
	must(t, ul.Commit())
	must(t, ul.Append(3, sparse.Vector{1: 0.375}))
	must(t, ul.Commit())
	must(t, ul.Reset(8192, 13))
	must(t, ul.Append(11, sparse.Vector{7: 0.0625, 5: -0.5}))
	must(t, ul.Commit())
	must(t, ul.Close())
	ul, err = ppvindex.OpenUpdateLog(upath, 8192, 13, func(graph.NodeID, sparse.Vector) error { return nil })
	must(t, err)
	must(t, ul.Append(12, nil))
	must(t, ul.Commit())
	must(t, ul.Append(13, sparse.Vector{1: 1}))
	must(t, ul.Close())
	if got := fileDigest(t, upath); got != goldenUpdateLog {
		t.Errorf("update log digest %s, want %s", got, goldenUpdateLog)
	}

	// FPG1: committed batches, an uncommitted tail, then a reopen under a
	// different graph binding (which resets the log) and one more batch.
	gpath := filepath.Join(dir, "index.graphlog")
	bind := ppvindex.GraphLogBinding{Nodes: 100, Edges: 400, Directed: true}
	gl, err := ppvindex.OpenGraphLog(gpath, bind, nil)
	must(t, err)
	must(t, gl.Append(ppvindex.GraphMutation{AddedEdges: []graph.Edge{{From: 1, To: 2}, {From: 2, To: 3}}}))
	must(t, gl.Append(ppvindex.GraphMutation{RemovedEdges: []graph.Edge{{From: 3, To: 1}}, NumNodes: 101}))
	must(t, gl.Commit())
	must(t, gl.Append(ppvindex.GraphMutation{AddedEdges: []graph.Edge{{From: 7, To: 8}}}))
	must(t, gl.Close())
	gl, err = ppvindex.OpenGraphLog(gpath, bind, func(ppvindex.GraphMutation) error { return nil })
	must(t, err)
	must(t, gl.Append(ppvindex.GraphMutation{AddedEdges: []graph.Edge{{From: 4, To: 5}}, RemovedEdges: []graph.Edge{{From: 1, To: 2}}}))
	must(t, gl.Commit())
	must(t, gl.Close())
	rebind := ppvindex.GraphLogBinding{Nodes: 101, Edges: 401, Directed: false}
	gl, err = ppvindex.OpenGraphLog(gpath, rebind, nil)
	must(t, err)
	must(t, gl.Append(ppvindex.GraphMutation{NumNodes: 120}))
	must(t, gl.Commit())
	must(t, gl.Close())
	if got := fileDigest(t, gpath); got != goldenGraphLog {
		t.Errorf("graph log digest %s, want %s", got, goldenGraphLog)
	}

	// FPQ1: enough records through a small generation cap to rotate, then a
	// reopen that replays both generations and appends more.
	qpath := filepath.Join(dir, "queries.qlog")
	opts := querylog.Options{FlushInterval: -1, MaxBytes: 512}
	ql, err := querylog.Open(qpath, opts, nil)
	must(t, err)
	for i := 0; i < 14; i++ {
		r := querylog.Record{
			Source: graph.NodeID(i * 3), Top: 10, Eta: uint8(i % 4), Mode: querylog.ModeEngine,
			Flags: uint8(i % 32), Iterations: uint8(i), Epoch: uint64(i / 3),
			LatencyUS: uint32(100 * i), Bound: 1 / float64(i+1),
		}
		if i%5 == 0 {
			r.Mode, r.TraceID = querylog.ModeRouter, "trace-"+string(rune('a'+i))
			r.Legs = []querylog.LegSummary{{Shard: 0, Legs: 2, DurationUS: 900}, {Shard: 1, Legs: 3, DurationUS: uint32(i)}}
		}
		must(t, ql.Append(r))
	}
	if ql.Stats().Rotations == 0 {
		t.Fatal("script did not rotate the query log")
	}
	must(t, ql.Close())
	ql, err = querylog.Open(qpath, opts, nil)
	must(t, err)
	must(t, ql.Append(querylog.Record{Source: 77, Top: 5, Eta: 1, Epoch: 9, LatencyUS: 42, Bound: 0.5}))
	must(t, ql.Close())
	if got := fileDigest(t, qpath); got != goldenQueryLog {
		t.Errorf("query log digest %s, want %s", got, goldenQueryLog)
	}
	if got := fileDigest(t, qpath+".1"); got != goldenQueryLogPrev {
		t.Errorf("previous query log generation digest %s, want %s", got, goldenQueryLogPrev)
	}
}
