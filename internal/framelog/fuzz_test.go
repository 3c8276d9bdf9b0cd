package framelog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// fuzzFormat is the format the fuzz target and its corpus generator share,
// so committed seeds replay instead of being reset as bound elsewhere.
var fuzzFormat = testFormat(7)

// FuzzFramelogReplay opens arbitrary bytes as a framed log. The contract:
//   - Open either succeeds or fails with the format's error, leaving the file
//     untouched; it never panics;
//   - Scan of the same bytes reports exactly the payloads Open replays;
//   - the repaired file is byte-identical, reserved header bytes aside, to a
//     fresh log the replayed payloads are re-appended to (a binding mismatch
//     repairs to a bare header), and reopening it replays the same payloads with nothing left
//     to truncate;
//   - tearing the last frame or flipping a bit inside it drops exactly that
//     frame.
func FuzzFramelogReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("FTT1garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var scanned [][]byte
		_, scanErr := Scan(path, fuzzFormat, collect(&scanned))

		var got [][]byte
		l, err := Open(path, fuzzFormat, collect(&got))
		if err != nil {
			if !errors.Is(err, errTestFormat) {
				t.Fatalf("Open returned unstructured error %v", err)
			}
			if !errors.Is(scanErr, errTestFormat) {
				t.Fatalf("Open rejected the file but Scan returned %v", scanErr)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
				t.Fatal("a rejected file was modified")
			}
			return
		}
		if scanErr != nil || !samePayloads(scanned, got) {
			t.Fatalf("Scan reported %d payloads (%v), Open replayed %d", len(scanned), scanErr, len(got))
		}
		if err := l.Close(); err != nil {
			t.Fatalf("closing an accepted log failed: %v", err)
		}
		repaired, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// A log keeps the reserved header bytes it found; everything else must
		// match the writer's output.
		fresh := encodeLog(t, dir, got)
		copy(fresh[12:16], repaired[12:16])
		if !bytes.Equal(repaired, fresh) {
			t.Fatalf("repaired file (%d bytes) differs from re-appending its %d payloads (%d bytes)",
				len(repaired), len(got), len(fresh))
		}
		if again, truncated := reopen(t, path, repaired); !samePayloads(again, got) || truncated != 0 {
			t.Fatalf("reopen replayed %d payloads and truncated %d bytes, first open replayed %d",
				len(again), truncated, len(got))
		}
		if len(got) == 0 {
			return
		}
		last := got[len(got)-1]
		frame := FrameOverhead + len(last)
		torn := repaired[:len(repaired)-1-len(data)%frame]
		if again, _ := reopen(t, path, torn); !samePayloads(again, got[:len(got)-1]) {
			t.Fatalf("torn last frame: replayed %d payloads, want %d", len(again), len(got)-1)
		}
		flipped := append([]byte(nil), repaired...)
		if len(last) > 0 {
			flipped[len(flipped)-1-len(data)%len(last)] ^= 0x10
		} else {
			flipped[len(flipped)-1] ^= 0x10 // the CRC of an empty payload
		}
		if again, _ := reopen(t, path, flipped); !samePayloads(again, got[:len(got)-1]) {
			t.Fatalf("bit flip in last frame: replayed %d payloads, want %d", len(again), len(got)-1)
		}
	})
}

// encodeLog writes payloads into a fresh log next to the fuzz input and
// returns its bytes.
func encodeLog(t *testing.T, dir string, payloads [][]byte) []byte {
	t.Helper()
	path := filepath.Join(dir, "fresh.log")
	writeLog(t, path, fuzzFormat, payloads...)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// reopen replaces the file at path with data and opens it, returning the
// replayed payloads and the bytes Open truncated.
func reopen(t *testing.T, path string, data []byte) ([][]byte, int64) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, l := replayAll(t, path, fuzzFormat)
	truncated := l.Truncated()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return got, truncated
}
