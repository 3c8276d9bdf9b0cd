package prime

import (
	"math"
	"testing"
	"testing/quick"

	"fastppv/internal/graph"
	"fastppv/internal/hub"
	"fastppv/internal/pagerank"
)

const alpha = pagerank.DefaultAlpha

// chainWithHub builds q -> h -> c where h is a hub.
func chainWithHub(t testing.TB) (*graph.Graph, *hub.Set) {
	t.Helper()
	b := graph.NewBuilder(true)
	b.EnsureNodes(3)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 2)
	return b.Finalize(), hub.NewSet([]graph.NodeID{1})
}

func TestComputePPVStopsAtHub(t *testing.T) {
	g, hubs := chainWithHub(t)
	ppv, stats, err := ComputePPV(g, 0, hubs, Options{})
	if err != nil {
		t.Fatalf("ComputePPV: %v", err)
	}
	// Hub-free tours from node 0: the empty tour and 0->1 (1 is the border
	// hub). The tour 0->1->2 passes through hub 1 and is excluded.
	if got, want := ppv.Get(0), alpha; math.Abs(got-want) > 1e-12 {
		t.Errorf("self score = %v, want %v", got, want)
	}
	if got, want := ppv.Get(1), alpha*(1-alpha); math.Abs(got-want) > 1e-12 {
		t.Errorf("border hub score = %v, want %v", got, want)
	}
	if got := ppv.Get(2); got != 0 {
		t.Errorf("node behind the hub has score %v, want 0", got)
	}
	if stats.BorderHubs != 1 {
		t.Errorf("BorderHubs = %d, want 1", stats.BorderHubs)
	}
	if stats.NodesTouched != 2 {
		t.Errorf("NodesTouched = %d, want 2", stats.NodesTouched)
	}
}

func TestComputePPVOnHubSourceExpandsItself(t *testing.T) {
	g, hubs := chainWithHub(t)
	// The hub's own prime PPV must expand from the hub (the starting
	// occurrence is not an interior hub).
	ppv, _, err := ComputePPV(g, 1, hubs, Options{})
	if err != nil {
		t.Fatalf("ComputePPV: %v", err)
	}
	if got, want := ppv.Get(2), alpha*(1-alpha); math.Abs(got-want) > 1e-12 {
		t.Errorf("score of 2 from hub source = %v, want %v", got, want)
	}
}

func TestComputePPVDoesNotExpandReturningToHubSource(t *testing.T) {
	// h <-> x: tours from hub h that return to h must stop there; the
	// returning occurrence of h is interior for any continuation.
	b := graph.NewBuilder(true)
	b.EnsureNodes(2)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 0)
	g := b.Finalize()
	hubs := hub.NewSet([]graph.NodeID{0})

	ppv, _, err := ComputePPV(g, 0, hubs, Options{Epsilon: 1e-15})
	if err != nil {
		t.Fatalf("ComputePPV: %v", err)
	}
	// Hub-free tours from 0: empty, 0->1, 0->1->0. Any longer tour passes
	// through the interior occurrence of hub 0.
	wantSelf := alpha * (1 + (1-alpha)*(1-alpha))
	wantX := alpha * (1 - alpha)
	if got := ppv.Get(0); math.Abs(got-wantSelf) > 1e-12 {
		t.Errorf("self score = %.8f, want %.8f", got, wantSelf)
	}
	if got := ppv.Get(1); math.Abs(got-wantX) > 1e-12 {
		t.Errorf("score of 1 = %.8f, want %.8f", got, wantX)
	}
}

func TestComputePPVNoHubsEqualsExactPPV(t *testing.T) {
	// With an empty hub set and a negligible epsilon, the prime PPV of a node
	// is its exact PPV.
	b := graph.NewBuilder(true)
	b.EnsureNodes(6)
	for i := 0; i < 6; i++ {
		b.MustAddEdge(graph.NodeID(i), graph.NodeID((i+1)%6))
		b.MustAddEdge(graph.NodeID(i), graph.NodeID((i+2)%6))
	}
	g := b.Finalize()
	hubs := hub.NewSet(nil)
	prime, _, err := ComputePPV(g, 0, hubs, Options{Epsilon: 1e-14})
	if err != nil {
		t.Fatalf("ComputePPV: %v", err)
	}
	exact, err := pagerank.ExactPPV(g, 0, pagerank.Options{})
	if err != nil {
		t.Fatalf("ExactPPV: %v", err)
	}
	if d := exact.L1Distance(prime); d > 1e-6 {
		t.Errorf("hub-free prime PPV differs from exact PPV by %v", d)
	}
}

func TestComputePPVMassNeverExceedsOne(t *testing.T) {
	g, hubs := chainWithHub(t)
	ppv, _, err := ComputePPV(g, 0, hubs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ppv.Sum() > 1+1e-12 {
		t.Errorf("prime PPV mass %v exceeds 1", ppv.Sum())
	}
}

func TestComputePPVValidation(t *testing.T) {
	g, hubs := chainWithHub(t)
	if _, _, err := ComputePPV(g, 99, hubs, Options{}); err == nil {
		t.Error("out-of-range source should fail")
	}
	if _, _, err := ComputePPV(g, 0, hubs, Options{Alpha: 3}); err == nil {
		t.Error("invalid alpha should fail")
	}
	if _, _, err := ComputePPV(g, 0, hubs, Options{Epsilon: -1}); err == nil {
		t.Error("negative epsilon should fail")
	}
	if _, _, err := ComputePPV(g, 0, hubs, Options{MaxPushes: -1}); err == nil {
		t.Error("negative MaxPushes should fail")
	}
}

func TestComputePPVMaxPushesTruncates(t *testing.T) {
	// A long chain with a tiny push budget gets truncated but still returns
	// a (partial) result.
	b := graph.NewBuilder(true)
	const n = 100
	b.EnsureNodes(n)
	for i := 0; i < n-1; i++ {
		b.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g := b.Finalize()
	ppv, stats, err := ComputePPV(g, 0, hub.NewSet(nil), Options{MaxPushes: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Truncated {
		t.Error("expected truncation with MaxPushes=5")
	}
	if ppv.Sum() > 1+1e-12 {
		t.Errorf("truncated prime PPV mass %v exceeds 1", ppv.Sum())
	}
}

func TestExtractMatchesComputePPVSupport(t *testing.T) {
	b := graph.NewBuilder(true)
	b.EnsureNodes(7)
	edges := [][2]graph.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}, {2, 6}}
	for _, e := range edges {
		b.MustAddEdge(e[0], e[1])
	}
	g := b.Finalize()
	hubs := hub.NewSet([]graph.NodeID{3})

	ppv, _, err := ComputePPV(g, 0, hubs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Extract(g, 0, hubs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Source != 0 {
		t.Errorf("Source = %d, want 0", sub.Source)
	}
	// Every node with positive prime-PPV mass appears in the subgraph.
	inSub := make(map[graph.NodeID]bool)
	for _, n := range sub.Nodes {
		inSub[n] = true
	}
	for node := range ppv {
		if !inSub[node] {
			t.Errorf("node %d has prime PPV mass but is missing from the extracted subgraph", node)
		}
	}
	// Nodes behind the hub (4, 5) are excluded.
	if inSub[4] || inSub[5] {
		t.Errorf("nodes behind the border hub leaked into the prime subgraph: %v", sub.Nodes)
	}
	if len(sub.Border) != 1 || sub.Border[0] != 3 {
		t.Errorf("Border = %v, want [3]", sub.Border)
	}
	if _, err := Extract(g, 99, hubs, Options{}); err == nil {
		t.Error("out-of-range source should fail")
	}
}

// TestQuickPrimePPVBoundedAndHubBlocked property-tests two invariants on
// random graphs: prime PPV mass never exceeds 1, and nodes reachable only
// through hubs receive no mass.
func TestQuickPrimePPVBoundedAndHubBlocked(t *testing.T) {
	f := func(rawEdges []uint16, hubPick uint8) bool {
		const n = 24
		b := graph.NewBuilder(true)
		b.EnsureNodes(n)
		for i := 0; i+1 < len(rawEdges); i += 2 {
			u := graph.NodeID(int(rawEdges[i]) % n)
			v := graph.NodeID(int(rawEdges[i+1]) % n)
			if u != v {
				b.MustAddEdge(u, v)
			}
		}
		g := b.Finalize()
		hubs := hub.NewSet([]graph.NodeID{graph.NodeID(int(hubPick) % n), graph.NodeID((int(hubPick) + 7) % n)})
		ppv, _, err := ComputePPV(g, 0, hubs, Options{})
		if err != nil {
			return false
		}
		return ppv.Sum() <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
