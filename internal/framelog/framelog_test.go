package framelog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

var errTestFormat = errors.New("test log: bad format")

// testFormat is a small format with a 4-byte binding followed by 4 reserved
// bytes, the shape of the real logs' headers.
func testFormat(bind byte) Format {
	binding := []byte{bind, 0, 0, 0, 0, 0, 0, 0}
	return Format{
		Name: "test log", Magic: 0x31545446, Version: 1, Binding: binding,
		Bound:        func(stored []byte) bool { return bytes.HasPrefix(stored, binding[:4]) },
		ErrBadFormat: errTestFormat,
	}
}

// rejectByte marks payloads the test codec rejects.
const rejectByte = 0xEE

// collect returns a replay callback that copies accepted payloads into dst
// and rejects payloads starting with rejectByte.
func collect(dst *[][]byte) func([]byte) error {
	return func(p []byte) error {
		if len(p) > 0 && p[0] == rejectByte {
			return ErrBadPayload
		}
		*dst = append(*dst, append([]byte(nil), p...))
		return nil
	}
}

// writeLog creates a log at path holding payloads, all committed.
func writeLog(t *testing.T, path string, format Format, payloads ...[]byte) {
	t.Helper()
	l, err := Open(path, format, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// replayAll opens path and returns the replayed payloads and the open log.
func replayAll(t *testing.T, path string, format Format) ([][]byte, *Log) {
	t.Helper()
	var got [][]byte
	l, err := Open(path, format, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	return got, l
}

func samePayloads(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestAppendCommitReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.log")
	want := [][]byte{[]byte("alpha"), {}, []byte("gamma")}
	writeLog(t, path, testFormat(1), want...)
	got, l := replayAll(t, path, testFormat(1))
	defer l.Close()
	if !samePayloads(got, want) {
		t.Fatalf("replayed %q, want %q", got, want)
	}
	wantSize := int64(16 + 3*FrameOverhead + 5 + 5)
	if l.Records() != 3 || l.SizeBytes() != wantSize || l.Uncommitted() {
		t.Fatalf("records %d, size %d (want %d), uncommitted %v", l.Records(), l.SizeBytes(), wantSize, l.Uncommitted())
	}
}

// TestTornTailTruncated covers every way a frame can end the log: cut short,
// CRC mismatch, codec rejection, and a length claiming more than the file
// holds. Each keeps the frames before it and truncates the file there.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.log")
	writeLog(t, base, testFormat(1), []byte("first"), []byte("second"))
	raw, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	firstEnd := 16 + FrameOverhead + len("first")

	huge := append([]byte(nil), raw[:firstEnd]...)
	huge = binary.LittleEndian.AppendUint32(huge, 1<<31)
	huge = append(huge, 0, 0, 0, 0, 'x')
	rejected := append([]byte(nil), raw...)
	rejected[firstEnd+FrameOverhead] = rejectByte
	binary.LittleEndian.PutUint32(rejected[firstEnd+4:], crc32.ChecksumIEEE(rejected[firstEnd+FrameOverhead:]))
	badCRC := append([]byte(nil), raw...)
	badCRC[len(badCRC)-1] ^= 0x01

	for name, file := range map[string][]byte{
		"short":    raw[:len(raw)-3],
		"crc":      badCRC,
		"rejected": rejected,
		"huge":     huge,
	} {
		path := filepath.Join(dir, name+".log")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		got, l := replayAll(t, path, testFormat(1))
		if !samePayloads(got, [][]byte{[]byte("first")}) {
			t.Errorf("%s: replayed %q, want just the first frame", name, got)
		}
		if l.SizeBytes() != int64(firstEnd) || l.Truncated() != int64(len(file)-firstEnd) {
			t.Errorf("%s: size %d truncated %d, want %d and %d", name, l.SizeBytes(), l.Truncated(), firstEnd, len(file)-firstEnd)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if st, err := os.Stat(path); err != nil || st.Size() != int64(firstEnd) {
			t.Errorf("%s: file not truncated to %d: %v %v", name, firstEnd, st.Size(), err)
		}
	}
}

// TestBindingMismatchResets: a log bound elsewhere is reset, not replayed;
// reserved bytes after the bound prefix do not count.
func TestBindingMismatchResets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.log")
	writeLog(t, path, testFormat(1), []byte("bound to 1"))

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[12] = 0x7F // a reserved byte
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := Scan(path, testFormat(1), nil); err != nil || n != 1 {
		t.Fatalf("Scan with reserved bytes set = %d, %v; want 1 record", n, err)
	}
	if n, err := Scan(path, testFormat(2), nil); err != nil || n != 0 {
		t.Fatalf("Scan bound elsewhere = %d, %v; want 0 records", n, err)
	}

	got, l := replayAll(t, path, testFormat(2))
	if len(got) != 0 || l.Records() != 0 || l.SizeBytes() != 16 {
		t.Fatalf("mismatched log replayed %q (%d records, %d bytes)", got, l.Records(), l.SizeBytes())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 16 || raw[8] != 2 || raw[12] != 0 {
		t.Fatalf("reset header = %x, want a bare header bound to 2", raw)
	}
}

// TestBadHeaderRejected: a foreign magic or an unsupported version is a
// structured error and leaves the file untouched.
func TestBadHeaderRejected(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.log")
	writeLog(t, good, testFormat(1), []byte("x"))
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	foreign := append([]byte(nil), raw...)
	foreign[0] ^= 0xFF
	future := append([]byte(nil), raw...)
	future[4] = 9
	for name, file := range map[string][]byte{"foreign": foreign, "future": future} {
		path := filepath.Join(dir, name+".log")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path, testFormat(1), nil); !errors.Is(err, errTestFormat) {
			t.Errorf("%s: Open = %v, want the format's error", name, err)
		}
		if _, err := Scan(path, testFormat(1), nil); !errors.Is(err, errTestFormat) {
			t.Errorf("%s: Scan = %v, want the format's error", name, err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, file) {
			t.Errorf("%s: rejected file was modified", name)
		}
	}
}

// TestCloseRollsBackUncommitted: Close drops frames appended after the last
// Commit, including any the buffer already flushed to the file.
func TestCloseRollsBackUncommitted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.log")
	_, l := replayAll(t, path, testFormat(1))
	if err := l.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	committed := l.SizeBytes()
	big := bytes.Repeat([]byte{'z'}, 1<<17) // larger than the write buffer
	if err := l.Append(big); err != nil {
		t.Fatal(err)
	}
	if !l.Uncommitted() {
		t.Fatal("Uncommitted = false after an Append")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != committed {
		t.Fatalf("file size after Close = %d (%v), want the committed %d", st.Size(), err, committed)
	}
	got, l := replayAll(t, path, testFormat(1))
	defer l.Close()
	if !samePayloads(got, [][]byte{[]byte("kept")}) {
		t.Fatalf("replayed %q, want only the committed frame", got)
	}
}

// TestScanIsReadOnly: Scan reports what Open would replay but leaves a torn
// tail in place; missing and sub-header files hold no records.
func TestScanIsReadOnly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.log")
	writeLog(t, path, testFormat(1), []byte("a"), []byte("b"))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(raw, 1, 2, 3)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	if n, err := Scan(path, testFormat(1), collect(&got)); err != nil || n != 2 || len(got) != 2 {
		t.Fatalf("Scan = %d, %v (%q), want 2 records", n, err, got)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, torn) {
		t.Fatal("Scan modified the file")
	}
	if n, err := Scan(filepath.Join(dir, "missing.log"), testFormat(1), nil); err != nil || n != 0 {
		t.Fatalf("Scan of a missing file = %d, %v", n, err)
	}
	short := filepath.Join(dir, "short.log")
	if err := os.WriteFile(short, raw[:5], 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := Scan(short, testFormat(1), nil); err != nil || n != 0 {
		t.Fatalf("Scan of a sub-header file = %d, %v", n, err)
	}
	stop := errors.New("stop")
	if n, err := Scan(path, testFormat(1), func([]byte) error { return stop }); !errors.Is(err, stop) || n != 0 {
		t.Fatalf("Scan with a failing callback = %d, %v, want the callback's error", n, err)
	}
}
