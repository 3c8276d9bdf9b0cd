// Package framelog is the framed, append-only log core shared by the FPL1
// hub-PPV update log, the FPG1 graph-mutation log and the FPQ1 query log.
// Each of those formats is a header binding plus a payload codec on top of
// this package.
//
// File layout (little endian):
//
//	header:
//	  magic      uint32
//	  version    uint32
//	  binding    format-specific bytes (reserved bytes included)
//	frames (zero or more, appended in commit order):
//	  payloadLen uint32  bytes of payload
//	  crc        uint32  CRC-32 (IEEE) of the payload
//	  payload            one record in the format's codec
//
// The binding ties a log to the base state its records apply to (a base
// index file, a base graph). Opening a log whose binding does not match the
// caller's resets it to a bare header instead of replaying it, so records
// can never replay onto a base they do not describe. A foreign magic or an
// unsupported version is an error and leaves the file untouched.
//
// A crash can only tear the tail: a frame that is short, fails its CRC or is
// rejected by the format's codec ends the log. Open truncates it away (and
// fsyncs), standard WAL semantics: frames before the tear are kept, nothing
// after an invalid frame is trusted. Append buffers frames and Commit makes
// them durable with one fsync; Close rolls back whatever was appended but
// never committed.
package framelog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// FrameOverhead is the fixed cost in front of every payload: payloadLen + crc.
const FrameOverhead = 8

// prefixBytes is the magic + version prefix of every header.
const prefixBytes = 8

// ErrBadPayload is what a replay or scan callback returns to reject a
// payload its codec cannot decode. The frame then counts as torn, exactly
// like a CRC mismatch: it and everything after it is dropped.
var ErrBadPayload = errors.New("framelog: payload rejected by its codec")

// Format describes the header of one log format.
type Format struct {
	// Name labels the format in errors, e.g. "update log".
	Name    string
	Magic   uint32
	Version uint32
	// Binding is written after magic and version; its length fixes the
	// header size.
	Binding []byte
	// Bound reports whether a stored binding (len(Binding) bytes) ties the
	// log to the same base as Binding. Nil accepts every stored binding,
	// which makes the binding bytes reserved.
	Bound func(stored []byte) bool
	// ErrBadFormat is wrapped by the error for a foreign magic or an
	// unsupported version.
	ErrBadFormat error
}

func (f *Format) headerBytes() int64 { return prefixBytes + int64(len(f.Binding)) }

// Log is an open framed log positioned for appending. It is not safe for
// concurrent use; callers serialize access.
type Log struct {
	f      *os.File
	w      *bufio.Writer
	format Format
	// size/records count the header and every appended frame, committed or
	// buffered; committedSize/committedRecords trail them until Commit runs.
	size, records                   int64
	committedSize, committedRecords int64
	truncated                       int64
}

// Open opens the log at path, creating it (and fsyncing its directory) if
// absent, and passes every valid frame payload to replay in append order.
// The payload slice is only valid during the call. A replay error other than
// ErrBadPayload aborts the open. A file shorter than the header gets a fresh
// header; one bound elsewhere (see Format.Bound) is reset to a fresh header
// without replaying. The returned log is positioned after the last valid
// frame.
func Open(path string, format Format, replay func(payload []byte) error) (*Log, error) {
	f, created, err := openOrCreate(path)
	if err != nil {
		return nil, err
	}
	l := &Log{f: f, format: format}
	if err := l.recover(path, replay); err != nil {
		f.Close()
		return nil, err
	}
	if created {
		// Without this a crash could lose the new directory entry, and with
		// it every record committed to the file.
		if err := SyncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, err
		}
	}
	l.w = bufio.NewWriterSize(f, 1<<16)
	return l, nil
}

// openOrCreate opens path read-write and reports whether it had to create it.
func openOrCreate(path string) (*os.File, bool, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if !errors.Is(err, fs.ErrNotExist) {
		return f, false, err
	}
	f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	return f, err == nil, err
}

// recover validates the header (writing a fresh one where there is none or
// the binding mismatches), replays the intact frames and truncates the torn
// tail, leaving the write offset at the end of the last valid frame.
func (l *Log) recover(path string, replay func([]byte) error) error {
	st, err := l.f.Stat()
	if err != nil {
		return err
	}
	if st.Size() < l.format.headerBytes() {
		// New log, or a crash tore the header itself before any frame could
		// have been committed.
		return l.writeHeader()
	}
	bound, err := readHeader(l.f, path, &l.format)
	if err != nil {
		return err
	}
	if !bound {
		return l.writeHeader()
	}
	end, records, err := scanFrames(l.f, l.format.headerBytes(), st.Size(), replay)
	if err != nil {
		return err
	}
	if end < st.Size() {
		l.truncated = st.Size() - end
		if err := l.f.Truncate(end); err != nil {
			return err
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	if _, err := l.f.Seek(end, io.SeekStart); err != nil {
		return err
	}
	l.size, l.records = end, records
	l.committedSize, l.committedRecords = end, records
	return nil
}

// readHeader checks magic and version of the header at the start of r and
// reports whether its binding matches format's.
func readHeader(r io.ReaderAt, path string, format *Format) (bool, error) {
	hdr := make([]byte, format.headerBytes())
	if _, err := r.ReadAt(hdr, 0); err != nil {
		return false, err
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != format.Magic {
		return false, fmt.Errorf("%w: %s %s has a foreign magic %#08x", format.ErrBadFormat, format.Name, path, m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != format.Version {
		return false, fmt.Errorf("%w: %s %s has unsupported version %d", format.ErrBadFormat, format.Name, path, v)
	}
	return format.Bound == nil || format.Bound(hdr[prefixBytes:]), nil
}

// scanFrames reads the frames of f between off and size, passing each valid
// payload to fn, and returns the end offset of the last valid frame and the
// number of frames fn accepted. A short frame, a CRC mismatch or an
// ErrBadPayload from fn ends the scan without error; any other fn error
// aborts it.
func scanFrames(f io.ReaderAt, off, size int64, fn func([]byte) error) (int64, int64, error) {
	br := bufio.NewReaderSize(io.NewSectionReader(f, off, size-off), 1<<16)
	var records int64
	var fh [FrameOverhead]byte
	var payload []byte
	for {
		if torn, err := readFull(br, fh[:]); torn || err != nil {
			return off, records, err
		}
		n := int64(binary.LittleEndian.Uint32(fh[0:]))
		// Bound the claimed length by the bytes left before allocating.
		if n > size-off-FrameOverhead {
			return off, records, nil
		}
		if int64(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if torn, err := readFull(br, payload); torn || err != nil {
			return off, records, err
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(fh[4:]) {
			return off, records, nil
		}
		if fn != nil {
			if err := fn(payload); errors.Is(err, ErrBadPayload) {
				return off, records, nil
			} else if err != nil {
				return off, records, err
			}
		}
		off += FrameOverhead + n
		records++
	}
}

// readFull fills buf, reporting an end of input as torn rather than as an
// error; other read errors are returned.
func readFull(r io.Reader, buf []byte) (torn bool, err error) {
	_, err = io.ReadFull(r, buf)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return true, nil
	}
	return false, err
}

// writeHeader truncates the file to a fresh, fsync'd header carrying the
// current binding and leaves the write offset right after it.
func (l *Log) writeHeader() error {
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	hdr := make([]byte, l.format.headerBytes())
	binary.LittleEndian.PutUint32(hdr[0:], l.format.Magic)
	binary.LittleEndian.PutUint32(hdr[4:], l.format.Version)
	copy(hdr[prefixBytes:], l.format.Binding)
	if _, err := l.f.WriteAt(hdr, 0); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	if _, err := l.f.Seek(int64(len(hdr)), io.SeekStart); err != nil {
		return err
	}
	l.size, l.records = int64(len(hdr)), 0
	l.committedSize, l.committedRecords = l.size, 0
	return nil
}

// Append buffers one frame. It does not hit the disk until Commit (or until
// the buffer fills).
func (l *Log) Append(payload []byte) error {
	var fh [FrameOverhead]byte
	binary.LittleEndian.PutUint32(fh[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(fh[4:], crc32.ChecksumIEEE(payload))
	if _, err := l.w.Write(fh[:]); err != nil {
		return err
	}
	if _, err := l.w.Write(payload); err != nil {
		return err
	}
	l.size += FrameOverhead + int64(len(payload))
	l.records++
	return nil
}

// Commit flushes every appended frame and fsyncs the file: one durable batch,
// however many frames it holds.
func (l *Log) Commit() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.committedSize, l.committedRecords = l.size, l.records
	return nil
}

// Uncommitted reports whether frames have been appended since the last
// Commit or Reset.
func (l *Log) Uncommitted() bool { return l.size != l.committedSize }

// Reset drops any uncommitted frames and empties the log back to a bare,
// fsync'd header carrying binding.
func (l *Log) Reset(binding []byte) error {
	l.w.Reset(l.f)
	l.format.Binding = binding
	return l.writeHeader()
}

// SizeBytes returns the log size in bytes, including the header and any
// still-buffered frames.
func (l *Log) SizeBytes() int64 { return l.size }

// Records returns the number of frames in the log, including buffered ones.
func (l *Log) Records() int64 { return l.records }

// Truncated returns how many bytes of torn tail Open discarded.
func (l *Log) Truncated() int64 { return l.truncated }

// Close rolls the file back to the last committed frame and closes it.
// Frames still uncommitted at Close belong to a batch whose commit never
// completed; persisting them would replay half a batch, so they are dropped
// (including any part the buffer already flushed) and the truncation is
// fsync'd.
func (l *Log) Close() error {
	l.w.Reset(l.f)
	var err error
	if l.size != l.committedSize {
		if err = l.f.Truncate(l.committedSize); err == nil {
			err = l.f.Sync()
		}
		l.size, l.records = l.committedSize, l.committedRecords
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Scan reads the log at path without modifying it, passing every valid frame
// payload to fn in order (the slice is only valid during the call), and
// returns how many fn accepted. It stops silently at a torn tail. A missing
// file, one shorter than the header and one bound elsewhere hold no records;
// a foreign magic or unsupported version is an error wrapping
// format.ErrBadFormat.
func Scan(path string, format Format, fn func(payload []byte) error) (int64, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil || st.Size() < format.headerBytes() {
		return 0, err
	}
	bound, err := readHeader(f, path, &format)
	if err != nil || !bound {
		return 0, err
	}
	_, records, err := scanFrames(f, format.headerBytes(), st.Size(), fn)
	return records, err
}

// syncDirHook, when set, observes every SyncDir call.
var syncDirHook func(dir string)

// SyncDir fsyncs a directory, making file creations and renames in it
// durable. Filesystems that cannot sync a directory handle are ignored.
func SyncDir(dir string) error {
	if syncDirHook != nil {
		syncDirHook(dir)
	}
	df, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer df.Close()
	if err := df.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) {
		return err
	}
	return nil
}
