package core

import (
	"errors"
	"math"
	"sort"
	"sync/atomic"
	"testing"

	"fastppv/internal/gen"
	"fastppv/internal/graph"
	"fastppv/internal/ppvindex"
	"fastppv/internal/sparse"
)

var errHubRead = errors.New("hub record read failed")

// failingStore is an IndexStore that serves every hub as an encoded view,
// the way a disk store does, except that once armed, both Get and GetView
// of one hub fail.
type failingStore struct {
	*ppvindex.MemIndex
	bad   graph.NodeID
	armed atomic.Bool
}

func (s *failingStore) failing(h graph.NodeID) bool { return s.armed.Load() && h == s.bad }

func (s *failingStore) Get(h graph.NodeID) (sparse.Vector, bool, error) {
	if s.failing(h) {
		return nil, false, errHubRead
	}
	return s.MemIndex.Get(h)
}

func (s *failingStore) GetView(h graph.NodeID) (ppvindex.HubRecordView, bool, error) {
	if s.failing(h) {
		return ppvindex.HubRecordView{}, false, errHubRead
	}
	v, ok, err := s.MemIndex.Get(h)
	if err != nil || !ok {
		return ppvindex.HubRecordView{}, ok, err
	}
	return ppvindex.NewHubRecordView(h, sparse.AppendEncoded(nil, v), nil), true, nil
}

// newFailingEngine precomputes an engine over a failingStore and picks as the
// failing hub the first border hub of query q, so Step (or PartialExpand)
// must read it in iteration 1. Clipping is off, so a prime PPV recomputed on
// the fly equals the stored one bit for bit.
func newFailingEngine(t *testing.T, q graph.NodeID) (*Engine, *failingStore) {
	t.Helper()
	g, err := gen.SocialGraph(gen.SocialConfig{Nodes: 500, OutDegreeMean: 5, Attachment: 0.7, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	store := &failingStore{MemIndex: ppvindex.NewMemIndex()}
	e, err := NewEngine(g, store, Options{NumHubs: 60, Clip: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Precompute(); err != nil {
		t.Fatal(err)
	}
	root, err := e.PartialRoot(q)
	if err != nil {
		t.Fatal(err)
	}
	border := make([]graph.NodeID, 0, len(root.Frontier))
	for h, w := range root.Frontier {
		if h != q && w > e.Options().Delta {
			border = append(border, h)
		}
	}
	if len(border) == 0 {
		t.Fatalf("query %d has no expandable border hub", q)
	}
	sort.Slice(border, func(i, j int) bool { return border[i] < border[j] })
	store.bad = border[0]
	return e, store
}

// TestReadErrorStepRecomputes: a Step whose hub read fails recomputes that
// hub's prime PPV and answers exactly what a healthy engine answers.
func TestReadErrorStepRecomputes(t *testing.T) {
	const q, eta = 3, 3
	e, store := newFailingEngine(t, q)
	healthy, err := e.Query(q, StopCondition{MaxIterations: eta})
	if err != nil {
		t.Fatal(err)
	}

	store.armed.Store(true)
	got, err := e.Query(q, StopCondition{MaxIterations: eta})
	if err != nil {
		t.Fatalf("Query with a failing hub read: %v", err)
	}
	if math.Float64bits(got.L1ErrorBound) != math.Float64bits(healthy.L1ErrorBound) {
		t.Errorf("bound %v, healthy %v", got.L1ErrorBound, healthy.L1ErrorBound)
	}
	if len(got.Estimate) != len(healthy.Estimate) {
		t.Fatalf("estimate has %d entries, healthy %d", len(got.Estimate), len(healthy.Estimate))
	}
	for n, s := range healthy.Estimate {
		if math.Float64bits(got.Estimate[n]) != math.Float64bits(s) {
			t.Fatalf("estimate[%d] = %v, healthy %v", n, got.Estimate[n], s)
		}
	}
}

// TestReadErrorPartialExpandReturns: PartialExpand hands a failing hub read
// back to its caller instead of recomputing, so the router can retry or
// degrade.
func TestReadErrorPartialExpandReturns(t *testing.T) {
	e, store := newFailingEngine(t, 3)
	store.armed.Store(true)
	_, err := e.PartialExpand(map[graph.NodeID]float64{store.bad: 0.5})
	if !errors.Is(err, errHubRead) {
		t.Fatalf("PartialExpand error = %v, want %v", err, errHubRead)
	}
}
