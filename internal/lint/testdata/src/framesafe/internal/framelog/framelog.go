// Package framelog is a framesafe fixture: its import path ends in
// internal/framelog, the shared log frame core, so its Open/Scan decode paths
// are held to the length-check-before-read, never-panic contract.
package framelog

import (
	"encoding/binary"
	"io"
)

// ScanUnchecked decodes a frame length straight from a caller's buffer: the
// frame header may be torn, so the read is flagged.
func ScanUnchecked(frame []byte) uint32 {
	return binary.LittleEndian.Uint32(frame) // want "without a preceding length check"
}

// OpenChecked fills a fixed-size frame header with a full read before
// decoding it, and bounds the claimed payload by the bytes left: clean.
func OpenChecked(r io.Reader, left int64) (int64, bool) {
	var fh [8]byte
	if _, err := io.ReadFull(r, fh[:]); err != nil {
		return 0, false
	}
	n := int64(binary.LittleEndian.Uint32(fh[0:]))
	if n > left-8 {
		return 0, false
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, false
	}
	return int64(len(payload)), true
}
