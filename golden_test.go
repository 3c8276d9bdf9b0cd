package fastppv

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// The golden-answer gate pins the exact bits every read mode answers with.
// Each hash covers, for a fixed query set at eta 1, 2 and 3, the node ids and
// math.Float64bits of every estimate entry (ascending node order) followed by
// the bits of the L1 error bound. The values were recorded before the hub
// read path was folded into one fetch helper and one expand kernel; any
// change to staging order, the self-loop correction, the entry codec or the
// error policies shows up here as a different hash.
const (
	// goldenSingleNode is shared by the in-memory engine and the disk engine
	// over mmap and over pread: every single-node read mode answers alike.
	goldenSingleNode = "1ff9fea459b9449f33925d8a91898fd80decfb6021328f31de325b7c393068b0"
	goldenDiskUpdate = "629b12383dd17e74c1850d9737a5ffcfffae8f76328aac5c65323a715fee17eb"
	goldenPartial2   = "4ea5cedb57f1441618d8737aac2534c950b3f5e4c03a9cd1bf5d52f9690dc71b"
	goldenIndexFile  = "278e29fea338c3f58879a6096ac5924b5c6acf80821910781a1cd875c1ca5369"
	goldenUpdateLog  = "c64f68adcc8a999a5f2b8d72825f2184d0582c8184fb69bf47bab198f3deae6e"
)

// goldenOptions builds the engines of the gate. One precompute worker makes
// the DiskWriter record order, and with it the index file bytes, reproducible.
var goldenOptions = Options{NumHubs: 40, Workers: 1}

// goldenQueries are the pinned query nodes: non-hubs (iteration 0 computes
// the prime PPV on the fly) plus the first hubs (iteration 0 reads the index).
func goldenQueries(e *Engine) []NodeID {
	qs := []NodeID{0, 3, 11, 42, 99, 150, 233, 311, 399}
	return append(qs, e.Hubs().Hubs()[:4]...)
}

// goldenUpdate is the graph change of the updated-disk mode: edges out of two
// hubs, so their records move to the overlay and are served through Get.
func goldenUpdate(e *Engine) GraphUpdate {
	hubs := e.Hubs().Hubs()
	return GraphUpdate{AddedEdges: []Edge{{From: hubs[0], To: 250}, {From: hubs[5], To: 17}, {From: 42, To: 7}}}
}

// hashAnswer folds one answer into h: estimate entries in ascending node
// order, then the bound.
func hashAnswer(h hash.Hash, est Vector, bound float64) {
	nodes := make([]NodeID, 0, len(est))
	for n := range est {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	var buf [12]byte
	for _, n := range nodes {
		binary.LittleEndian.PutUint32(buf[0:], uint32(n))
		binary.LittleEndian.PutUint64(buf[4:], math.Float64bits(est[n]))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(bound))
	h.Write(buf[:8])
}

// engineAnswersHash hashes the answers of e for qs at eta 1, 2, 3.
func engineAnswersHash(t *testing.T, e *Engine, qs []NodeID) string {
	t.Helper()
	h := sha256.New()
	for _, q := range qs {
		for eta := 1; eta <= 3; eta++ {
			res, err := e.Query(q, StopCondition{MaxIterations: eta})
			if err != nil {
				t.Fatalf("Query(%d, eta=%d): %v", q, eta, err)
			}
			hashAnswer(h, res.Estimate, res.L1ErrorBound)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// routedAnswersHash hashes the answers of a hub-partitioned cluster driven
// the way the router does: PartialRoot on the query's owner, then per
// iteration the frontier scattered to the owning shards, their PartialExpand
// increments merged in shard order, and the bound taken as 1 - mass.
func routedAnswersHash(t *testing.T, shards []*Engine, qs []NodeID) string {
	t.Helper()
	p := Partition{Shards: len(shards)}
	h := sha256.New()
	for _, q := range qs {
		for eta := 1; eta <= 3; eta++ {
			root, err := shards[p.Owner(q)].PartialRoot(q)
			if err != nil {
				t.Fatalf("PartialRoot(%d): %v", q, err)
			}
			estimate, frontier := root.Increment, root.Frontier
			mass := estimate.SumOrdered()
			for iter := 1; iter <= eta && len(frontier) > 0; iter++ {
				groups := make([]map[NodeID]float64, len(shards))
				for hub, w := range frontier {
					s := p.Owner(hub)
					if groups[s] == nil {
						groups[s] = make(map[NodeID]float64)
					}
					groups[s][hub] = w
				}
				merged := make(Vector)
				next := make(map[NodeID]float64)
				for s, e := range shards {
					if groups[s] == nil {
						continue
					}
					part, err := e.PartialExpand(groups[s])
					if err != nil {
						t.Fatalf("PartialExpand shard %d: %v", s, err)
					}
					merged.AddVector(part.Increment)
					for hub, w := range part.Frontier {
						next[hub] += w
					}
				}
				estimate.AddVector(merged)
				mass += merged.SumOrdered()
				frontier = next
			}
			hashAnswer(h, estimate, 1-mass)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func fileHash(t *testing.T, path string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	b, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func checkGolden(t *testing.T, mode, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s: hash %s, want %s", mode, got, want)
	}
}

// TestGoldenAnswers pins the answers of every read mode: the in-memory
// engine (records through Index.Get), the disk engine over mmap and over
// pread behind a block cache (records through views), the disk engine after
// an update (overlay hubs through Get, the rest through views), and a 2-shard
// PartialRoot/PartialExpand composition. It also pins the bytes of the index
// file DiskWriter writes and of the update log the update appends to.
func TestGoldenAnswers(t *testing.T) {
	g := buildTestGraph(t, 400, 4, 7)

	mem, err := New(g, goldenOptions)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Precompute(); err != nil {
		t.Fatal(err)
	}
	qs := goldenQueries(mem)
	checkGolden(t, "memory", engineAnswersHash(t, mem, qs), goldenSingleNode)

	dir := t.TempDir()
	path := filepath.Join(dir, "index.ppv")
	build, closeBuild, err := NewWithDiskIndex(g, goldenOptions, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := build.Precompute(); err != nil {
		t.Fatal(err)
	}
	if err := closeBuild(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "index file", fileHash(t, path), goldenIndexFile)

	for _, mode := range []struct {
		name string
		mmap bool
	}{{"disk mmap", true}, {"disk pread", false}} {
		e, closeIndex, err := OpenDiskIndexWithOptions(g, goldenOptions, path, DiskIndexOptions{BlockCacheBytes: 1 << 20, Mmap: mode.mmap})
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		checkGolden(t, mode.name, engineAnswersHash(t, e, qs), goldenSingleNode)
		if err := closeIndex(); err != nil {
			t.Fatal(err)
		}
	}

	upath := filepath.Join(dir, "updated.ppv")
	copyFile(t, path, upath)
	upd, closeUpd, err := OpenDiskIndexWithOptions(g, goldenOptions, upath, DiskIndexOptions{BlockCacheBytes: 1 << 20, Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer closeUpd()
	stats, err := upd.ApplyUpdate(goldenUpdate(upd))
	if err != nil {
		t.Fatal(err)
	}
	if stats.AffectedHubs == 0 {
		t.Fatal("update recomputed no hub; the overlay Get path is not exercised")
	}
	checkGolden(t, "disk after update", engineAnswersHash(t, upd, qs), goldenDiskUpdate)
	checkGolden(t, "update log", fileHash(t, upath+".log"), goldenUpdateLog)

	shards := make([]*Engine, 2)
	for s := range shards {
		opts := goldenOptions
		opts.Partition = Partition{Shard: s, Shards: len(shards)}
		if shards[s], err = New(g, opts); err != nil {
			t.Fatal(err)
		}
		if err := shards[s].Precompute(); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "2-shard partial", routedAnswersHash(t, shards, qs), goldenPartial2)
}
