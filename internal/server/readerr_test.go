package server

import (
	"errors"
	"net/http"
	"testing"

	"fastppv/internal/api"
	"fastppv/internal/core"
	"fastppv/internal/gen"
	"fastppv/internal/graph"
	"fastppv/internal/ppvindex"
	"fastppv/internal/sparse"
)

// closedHubStore is an in-memory IndexStore whose reads of one hub fail with
// ppvindex.ErrIndexClosed once armed, as a disk store's do while a
// compaction retires the generation a read started on.
type closedHubStore struct {
	*ppvindex.MemIndex
	bad   graph.NodeID
	armed bool
}

func (s *closedHubStore) Get(h graph.NodeID) (sparse.Vector, bool, error) {
	if s.armed && h == s.bad {
		return nil, false, ppvindex.ErrIndexClosed
	}
	return s.MemIndex.Get(h)
}

// TestReadErrorPartialMapsToRetry: a partial expansion whose hub read hits a
// closed index answers 503 with the structured "retry" code, which the router
// retries before declaring the shard down.
func TestReadErrorPartialMapsToRetry(t *testing.T) {
	g, err := gen.SocialGraph(gen.SocialConfig{Nodes: 300, OutDegreeMean: 5, Attachment: 0.7, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	store := &closedHubStore{MemIndex: ppvindex.NewMemIndex()}
	e, err := core.NewEngine(g, store, core.Options{NumHubs: 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Precompute(); err != nil {
		t.Fatal(err)
	}
	srv, err := New(e, Config{})
	if err != nil {
		t.Fatal(err)
	}
	store.bad = e.Hubs().Hubs()[0]
	store.armed = true

	frontier := api.EncodeMap(map[graph.NodeID]float64{store.bad: 0.5})
	_, err = srv.evalPartial(&api.PartialRequest{Frontier: &frontier}, "")
	var he *httpError
	if !errors.As(err, &he) {
		t.Fatalf("evalPartial error = %v, want an *httpError", err)
	}
	if he.status != http.StatusServiceUnavailable || he.code != api.CodeRetry {
		t.Errorf("evalPartial answered %d %q, want %d %q", he.status, he.code, http.StatusServiceUnavailable, api.CodeRetry)
	}
}
