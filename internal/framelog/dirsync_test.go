package framelog_test

import (
	"path/filepath"
	"testing"

	"fastppv/internal/framelog"
	"fastppv/internal/graph"
	"fastppv/internal/ppvindex"
	"fastppv/internal/querylog"
	"fastppv/internal/sparse"
)

// TestLogsSyncDirectoryOnCreate: every log created through the frame core,
// every query-log rotation and every published disk index fsyncs its
// directory exactly once; reopening existing files syncs nothing.
func TestLogsSyncDirectoryOnCreate(t *testing.T) {
	dir := t.TempDir()
	syncs := 0
	framelog.SetSyncDirHook(func(d string) {
		if d != dir {
			t.Errorf("synced directory %s, want %s", d, dir)
		}
		syncs++
	})
	defer framelog.SetSyncDirHook(nil)
	expect := func(what string, want int) {
		t.Helper()
		if syncs != want {
			t.Fatalf("%s: %d directory syncs, want %d", what, syncs, want)
		}
		syncs = 0
	}

	bind := ppvindex.GraphLogBinding{Nodes: 10, Edges: 20}
	for i := 0; i < 2; i++ {
		ul, err := ppvindex.OpenUpdateLog(filepath.Join(dir, "index.log"), 100, 3, nil)
		must(t, err)
		must(t, ul.Close())
		gl, err := ppvindex.OpenGraphLog(filepath.Join(dir, "index.graphlog"), bind, nil)
		must(t, err)
		must(t, gl.Close())
		expect("open update and graph logs", 2*(1-i))
	}

	ql, err := querylog.Open(filepath.Join(dir, "q.qlog"), querylog.Options{FlushInterval: -1, MaxBytes: 256}, nil)
	must(t, err)
	expect("create query log", 1)
	for i := 0; i < 20; i++ {
		must(t, ql.Append(querylog.Record{Source: graph.NodeID(i), Top: 10}))
	}
	rotations := int(ql.Stats().Rotations)
	if rotations == 0 {
		t.Fatal("query log never rotated")
	}
	expect("rotate query log", rotations)
	must(t, ql.Close())

	w, err := ppvindex.CreateDisk(filepath.Join(dir, "index.ppv"))
	must(t, err)
	must(t, w.Put(1, sparse.Vector{2: 0.5}))
	must(t, w.Close())
	expect("publish disk index", 1)
}
