// accumulator.go implements the flat sorted-slice accumulator used by the
// query inner loop, and the 12-byte entry codec it shares with the on-disk
// index. The online stage of FastPPV (Sect. 5) repeatedly folds scaled prime
// PPVs into a running estimate; doing that over map-based Vectors costs a
// hash probe per entry plus a defensive clone per hub. The Accumulator
// instead keeps entries as a []Entry sorted by node id: hub records are
// staged straight from a decoded Vector or from their encoded bytes (see
// EncodedEntrySize) and folded in with one stable sort, without
// materializing an intermediate map. Results convert back to the public
// map-based Vector only at the API boundary.
package sparse

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"sort"

	"fastppv/internal/graph"
)

// EncodedEntrySize is the size of one (node, score) entry in the flat record
// encoding shared with the on-disk index format: node id as uint32 followed
// by the IEEE-754 bits of the score as uint64, both little-endian. Entries in
// an encoded record are sorted by ascending node id.
const EncodedEntrySize = 12

// PutEncodedEntry writes one encoded entry at the start of b, which must be
// at least EncodedEntrySize bytes long.
func PutEncodedEntry(b []byte, id graph.NodeID, score float64) {
	binary.LittleEndian.PutUint32(b[0:4], uint32(id))
	binary.LittleEndian.PutUint64(b[4:12], math.Float64bits(score))
}

// EncodedEntryAt decodes the i-th entry of an encoded record payload.
func EncodedEntryAt(b []byte, i int) (graph.NodeID, float64) {
	off := i * EncodedEntrySize
	id := graph.NodeID(binary.LittleEndian.Uint32(b[off : off+4]))
	score := math.Float64frombits(binary.LittleEndian.Uint64(b[off+4 : off+12]))
	return id, score
}

// AppendEncoded appends the encoding of v, entries in ascending node order,
// to dst and returns the extended slice.
func AppendEncoded(dst []byte, v Vector) []byte {
	var a Accumulator
	a.SetVector(v)
	at := len(dst)
	dst = append(dst, make([]byte, len(a.entries)*EncodedEntrySize)...)
	for i, e := range a.entries {
		PutEncodedEntry(dst[at+i*EncodedEntrySize:], e.Node, e.Score)
	}
	return dst
}

// DecodeVector materializes the entries of an encoded payload as a Vector. A
// trailing partial entry is ignored; callers that must reject one check the
// length first. The result shares no memory with data.
func DecodeVector(data []byte) Vector {
	n := len(data) / EncodedEntrySize
	v := New(n)
	for i := 0; i < n; i++ {
		id, s := EncodedEntryAt(data, i)
		v[id] = s
	}
	return v
}

// extensionEpsilon is the threshold below which the self-loop-corrected score
// of a hub's own entry is dropped.
const extensionEpsilon = 1e-15

// Accumulator is a sparse score vector stored as a slice of entries sorted by
// ascending node id. It is the zero-copy counterpart of Vector for the query
// hot loop: merges are linear scans, the deterministic ordered sum is a plain
// loop (entries are already in ascending node order), and no per-hub maps or
// clones are allocated. An Accumulator is not safe for concurrent use.
//
// The zero value is ready to use; Reset makes an instance reusable without
// releasing its backing storage, which is what makes pooling effective.
type Accumulator struct {
	entries []Entry       // invariant: sorted by ascending Node, no duplicates
	scratch []Entry       // merge destination, swapped with entries after each fold
	tmp     []Entry       // Combine's fold of the staged contributions
	staged  []stagedEntry // contributions staged by Stage* since the last Combine
}

// stagedEntry is one staged contribution. seq, its position in the staging
// buffer, makes (node, seq) a unique sort key, so Combine's unstable sort on
// it orders contributions exactly as a stable sort by node would.
type stagedEntry struct {
	node  graph.NodeID
	seq   int32
	score float64
}

// stage appends one contribution to the staging buffer.
func (a *Accumulator) stage(node graph.NodeID, score float64) {
	a.staged = append(a.staged, stagedEntry{node: node, seq: int32(len(a.staged)), score: score})
}

// Reset truncates the accumulator to empty, retaining capacity.
func (a *Accumulator) Reset() {
	a.entries = a.entries[:0]
	a.scratch = a.scratch[:0]
	a.tmp = a.tmp[:0]
	a.staged = a.staged[:0]
}

// Len returns the number of stored entries.
func (a *Accumulator) Len() int { return len(a.entries) }

// Entries returns the backing entry slice, sorted by ascending node id. The
// slice aliases the accumulator's storage and is invalidated by the next
// mutating call; callers must not modify or retain it.
func (a *Accumulator) Entries() []Entry { return a.entries }

// Get returns the score of id (zero when absent) via binary search.
func (a *Accumulator) Get(id graph.NodeID) float64 {
	i := sort.Search(len(a.entries), func(i int) bool { return a.entries[i].Node >= id })
	if i < len(a.entries) && a.entries[i].Node == id {
		return a.entries[i].Score
	}
	return 0
}

// SetVector replaces the accumulator's contents with the entries of v.
func (a *Accumulator) SetVector(v Vector) {
	if cap(a.entries) < len(v) {
		a.entries = make([]Entry, 0, len(v))
	}
	a.entries = a.entries[:0]
	//lint:ordered collect-then-sort: entries are sorted by node id on the next line
	for id, s := range v {
		a.entries = append(a.entries, Entry{Node: id, Score: s})
	}
	slices.SortFunc(a.entries, func(x, y Entry) int { return cmp.Compare(x.Node, y.Node) })
}

// Sum returns the total mass, accumulating in ascending node order. Because
// entries are kept sorted, this is the same floating-point result as
// Vector.SumOrdered over an equal vector — the byte-reproducibility contract
// of the serving error bound — without the sort.
func (a *Accumulator) Sum() float64 {
	var total float64
	for i := range a.entries {
		total += a.entries[i].Score
	}
	return total
}

// ToVector materializes the accumulator as a public map-based Vector.
func (a *Accumulator) ToVector() Vector {
	out := New(len(a.entries))
	for _, e := range a.entries {
		out[e.Node] = e.Score
	}
	return out
}

// AddAccumulator folds other into a entry-wise (a += other) with a single
// linear merge. It is the sorted-slice analogue of Vector.AddVector.
func (a *Accumulator) AddAccumulator(other *Accumulator) {
	if len(other.entries) == 0 {
		return
	}
	out := a.scratch[:0]
	i := 0
	for _, e := range other.entries {
		for i < len(a.entries) && a.entries[i].Node < e.Node {
			out = append(out, a.entries[i])
			i++
		}
		if i < len(a.entries) && a.entries[i].Node == e.Node {
			out = append(out, Entry{Node: e.Node, Score: a.entries[i].Score + e.Score})
			i++
		} else {
			out = append(out, e)
		}
	}
	out = append(out, a.entries[i:]...)
	a.entries, a.scratch = out, a.entries
}

// AccumulateEncodedExtension folds scale times the extension vector of an
// encoded hub record into the accumulator: a += scale * ext(record), where
// ext applies the Theorem 4 self-loop correction inline — the owner hub's own
// entry contributes (score − alpha), and is dropped entirely when the
// corrected score falls below a small epsilon. It merges one record at a
// time and is the sequential reference the staged path (StageEncodedExtension
// + Combine) must match bit for bit: the per-node floating-point operation is
// the same old + scale*score.
func (a *Accumulator) AccumulateEncodedExtension(data []byte, scale float64, owner graph.NodeID, alpha float64) {
	n := len(data) / EncodedEntrySize
	if n == 0 {
		return
	}
	out := a.scratch[:0]
	i := 0
	for j := 0; j < n; j++ {
		node, score := EncodedEntryAt(data, j)
		if node == owner {
			score -= alpha
			if score <= extensionEpsilon {
				continue
			}
		}
		for i < len(a.entries) && a.entries[i].Node < node {
			out = append(out, a.entries[i])
			i++
		}
		if i < len(a.entries) && a.entries[i].Node == node {
			out = append(out, Entry{Node: node, Score: a.entries[i].Score + scale*score})
			i++
		} else {
			out = append(out, Entry{Node: node, Score: scale * score})
		}
	}
	out = append(out, a.entries[i:]...)
	a.entries, a.scratch = out, a.entries
}

// StageEncodedExtension appends scale times the extension vector of an
// encoded hub record to the staging buffer without merging: a Step expands
// many hubs, and merging each record into the growing increment immediately
// costs O(|increment|) per hub. Staging is O(|record|) per hub; Combine then
// folds everything staged with one sort. The owner self-loop
// correction is applied here, identically to AccumulateEncodedExtension.
//
// Callers must stage hubs in ascending owner order and call Combine before
// reading the accumulator: the sort keys on node id, then staging position,
// so the per-node contribution order (and with it bit-reproducibility against the
// sequential merge) is the staging order.
func (a *Accumulator) StageEncodedExtension(data []byte, scale float64, owner graph.NodeID, alpha float64) {
	n := len(data) / EncodedEntrySize
	for j := 0; j < n; j++ {
		node, score := EncodedEntryAt(data, j)
		if node == owner {
			score -= alpha
			if score <= extensionEpsilon {
				continue
			}
		}
		a.stage(node, scale*score)
	}
}

// StageVectorExtension is StageEncodedExtension for a map-based prime PPV.
// Map iteration order does not matter here: a single hub record holds each
// node at most once, so the cross-hub per-node contribution order is fixed by
// the staging order of whole hubs, not by the order within one record.
func (a *Accumulator) StageVectorExtension(v Vector, scale float64, owner graph.NodeID, alpha float64) {
	//lint:ordered each node occurs once per staged record; Combine sorts by node id, then staging position, so duplicates fold in record order, not map order
	for id, s := range v {
		if id == owner {
			s -= alpha
			if s <= extensionEpsilon {
				continue
			}
		}
		a.stage(id, scale*s)
	}
}

// Combine folds every staged contribution into the accumulator. Duplicated
// nodes are summed in staging order, which reproduces the
// floating-point addition sequence of merging the staged hubs one at a time —
// the bit-reproducibility contract — at O(E log E) for E staged entries
// instead of O(hubs x |accumulator|).
func (a *Accumulator) Combine() {
	if len(a.staged) == 0 {
		return
	}
	slices.SortFunc(a.staged, func(x, y stagedEntry) int {
		if x.node != y.node {
			return cmp.Compare(x.node, y.node)
		}
		return cmp.Compare(x.seq, y.seq)
	})
	folded := a.tmp[:0]
	cur := Entry{Node: a.staged[0].node, Score: a.staged[0].score}
	for _, e := range a.staged[1:] {
		if e.node == cur.Node {
			cur.Score += e.score
		} else {
			folded = append(folded, cur)
			cur = Entry{Node: e.node, Score: e.score}
		}
	}
	folded = append(folded, cur)
	a.tmp = folded
	a.staged = a.staged[:0]

	if len(a.entries) == 0 {
		a.entries = append(a.entries[:0], folded...)
		return
	}
	out := a.scratch[:0]
	i := 0
	for _, e := range folded {
		for i < len(a.entries) && a.entries[i].Node < e.Node {
			out = append(out, a.entries[i])
			i++
		}
		if i < len(a.entries) && a.entries[i].Node == e.Node {
			out = append(out, Entry{Node: e.Node, Score: a.entries[i].Score + e.Score})
			i++
		} else {
			out = append(out, e)
		}
	}
	out = append(out, a.entries[i:]...)
	a.entries, a.scratch = out, a.entries
}
