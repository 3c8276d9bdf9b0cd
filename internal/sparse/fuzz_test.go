package sparse

import (
	"math"
	"testing"

	"fastppv/internal/graph"
)

// FuzzEncodedRoundTrip drives the flat (node, score) entry encoding shared
// with the disk-index record format. The input bytes are decoded (duplicate
// ids collapse through the map, as they do on a real decode), encoded again
// and decoded once more: the encoding must be strictly ascending by node and
// the vector must round-trip bit-for-bit.
func FuzzEncodedRoundTrip(f *testing.F) {
	seed := make([]byte, 2*EncodedEntrySize)
	PutEncodedEntry(seed, 3, 0.5)
	PutEncodedEntry(seed[EncodedEntrySize:], 9, -1e300)
	f.Add(seed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		v := DecodeVector(data)
		enc := AppendEncoded(nil, v)
		if len(enc) != len(v)*EncodedEntrySize {
			t.Fatalf("encoded %d entries into %d bytes", len(v), len(enc))
		}
		var prev graph.NodeID
		for i := 0; i < len(v); i++ {
			id, s := EncodedEntryAt(enc, i)
			if math.Float64bits(s) != math.Float64bits(v[id]) {
				t.Fatalf("entry %d: node %d encoded as %x, want %x", i, id, math.Float64bits(s), math.Float64bits(v[id]))
			}
			if i > 0 && id <= prev {
				t.Fatalf("encoded entries not strictly ascending at %d: %d after %d", i, id, prev)
			}
			prev = id
		}
		back := DecodeVector(enc)
		if len(back) != len(v) {
			t.Fatalf("decoded %d of %d entries", len(back), len(v))
		}
		for id, s := range v {
			if math.Float64bits(back[id]) != math.Float64bits(s) {
				t.Fatalf("node %d: %x round-tripped to %x", id, math.Float64bits(s), math.Float64bits(back[id]))
			}
		}
	})
}
