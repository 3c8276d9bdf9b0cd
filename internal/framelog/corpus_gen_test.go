package framelog

import (
	"os"
	"path/filepath"
	"testing"

	"fastppv/internal/corpus"
)

// TestRegenFramelogCorpus writes the committed seed corpus of
// FuzzFramelogReplay, building the valid seed with the real writer (the fuzz
// target's format) and deriving the damaged ones from it. Gated behind
// PPV_REGEN_CORPUS=1.
func TestRegenFramelogCorpus(t *testing.T) {
	corpus.SkipUnlessRegen(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "seed.log")
	writeLog(t, path, fuzzFormat, []byte("first payload"), nil, []byte{rejectByte - 1, 1, 2, 3})
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header := int(fuzzFormat.headerBytes())
	badcrc := append([]byte(nil), valid...)
	badcrc[len(badcrc)-1] ^= 0xFF
	rebound := append([]byte(nil), valid...)
	rebound[8]++ // bound to another base: resets to a bare header
	reserved := append([]byte(nil), valid...)
	reserved[12] = 0x55 // reserved binding byte: still replays

	rejectPath := filepath.Join(dir, "reject.log")
	writeLog(t, rejectPath, fuzzFormat, []byte("kept"), []byte{rejectByte, 9}, []byte("after the rejected frame"))
	rejected, err := os.ReadFile(rejectPath)
	if err != nil {
		t.Fatal(err)
	}
	future := append([]byte(nil), valid...)
	future[4] = 2

	corpus.Write(t, "FuzzFramelogReplay",
		valid,
		valid[:len(valid)-3], // torn tail mid-frame
		badcrc,               // checksum mismatch on the last frame
		rebound,
		reserved,
		rejected,            // codec-rejected frame mid-log
		valid[:header],      // bare header, zero records
		valid[:header-3],    // torn header
		future,              // unsupported version
		[]byte("NOPE....."), // foreign magic
	)
}
