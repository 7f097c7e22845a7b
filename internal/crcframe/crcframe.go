// Package crcframe owns how pmsd's files are checksummed and made
// durable. Every checksummed format in the repository builds on it:
// mapstore entries (PMSTORE1) and the MANIFEST, -record traces
// (PMSTRC1), flight-recorder incidents (PMSINC1) and TREEMAP mappings.
// Each format keeps its own layout, caps and error prefix; this package
// never knows which format calls it.
//
// It provides four things:
//
//   - CRC-32C (Castagnoli), one-shot, continued and streaming;
//   - a sealed fixed-size header: an 8-byte magic and a little-endian
//     u32 version at the front, and in its last four bytes the CRC-32C
//     of every byte before them;
//   - u32-length-prefixed chunks, read with every declared length
//     checked against a cap and against the input before anything is
//     sliced;
//   - WriteFile, the one crash-safe write: the bytes go to path+".tmp"
//     in the destination's own directory, are fsynced, renamed over
//     path, and the directory is fsynced so the rename itself is
//     durable. A crash leaves the old file or the new one, plus at most
//     a stale *.tmp that readers never trust; a failed write removes
//     its temp file.
package crcframe

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"os"
	"path/filepath"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C of b.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Update returns the CRC-32C of the bytes summed into crc followed by b.
func Update(crc uint32, b []byte) uint32 { return crc32.Update(crc, castagnoli, b) }

// New returns a streaming CRC-32C.
func New() hash.Hash32 { return crc32.New(castagnoli) }

// PutHeader writes magic (8 bytes) and version at the front of hdr.
func PutHeader(hdr []byte, magic string, version uint32) {
	copy(hdr[:8], magic)
	binary.LittleEndian.PutUint32(hdr[8:12], version)
}

// Seal stores the CRC-32C of hdr[:len(hdr)-4] in hdr's last four bytes.
func Seal(hdr []byte) {
	n := len(hdr) - 4
	binary.LittleEndian.PutUint32(hdr[n:], Checksum(hdr[:n]))
}

// CheckHeader validates the sealed size-byte header at the front of
// data: its length, then its magic, then its version, then its CRC.
func CheckHeader(data []byte, size int, magic string, version uint32) error {
	if len(data) < size {
		return fmt.Errorf("truncated at %d bytes (header is %d)", len(data), size)
	}
	if string(data[:8]) != magic {
		return fmt.Errorf("bad magic %q", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != version {
		return fmt.Errorf("unsupported version %d (want %d)", v, version)
	}
	if got, want := binary.LittleEndian.Uint32(data[size-4:size]), Checksum(data[:size-4]); got != want {
		return fmt.Errorf("header checksum mismatch: file %08x, computed %08x", got, want)
	}
	return nil
}

// AppendU32 appends v little-endian.
func AppendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }

// AppendChunk appends chunk behind its u32 length.
func AppendChunk(dst, chunk []byte) []byte {
	return append(AppendU32(dst, uint32(len(chunk))), chunk...)
}

// ReadU32 pops a little-endian u32 off src.
func ReadU32(src []byte) (v uint32, rest []byte, err error) {
	if len(src) < 4 {
		return 0, nil, fmt.Errorf("truncated u32 (%d bytes left)", len(src))
	}
	return binary.LittleEndian.Uint32(src), src[4:], nil
}

// ReadChunk pops one u32-length-prefixed chunk of at most max bytes off
// src. The chunk aliases src.
func ReadChunk(src []byte, max uint32) (chunk, rest []byte, err error) {
	n, rest, err := ReadU32(src)
	if err != nil {
		return nil, nil, err
	}
	if n > max {
		return nil, nil, fmt.Errorf("chunk of %d bytes above cap %d", n, max)
	}
	if uint64(len(rest)) < uint64(n) {
		return nil, nil, fmt.Errorf("chunk of %d bytes past the end (%d left)", n, len(rest))
	}
	return rest[:n], rest[n:], nil
}

// WriteFile writes data to path crash-safely (see the package doc).
func WriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	// The rename has landed; a filesystem that cannot fsync a directory
	// still holds the new file, so that failure is not the caller's.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}
