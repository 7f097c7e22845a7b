// On-disk entry format of the mapping store. One file holds one spilled
// mapping artifact, framed with internal/crcframe:
//
//	header block (4096 B):
//	  [0:8]     magic "PMSTORE1"
//	  [8:12]    format version (1)
//	  [12:14]   kind (array | color retriever | labeltree)
//	  [14:16]   flags (bit 0: little-endian payload; always set today)
//	  [16:24]   payload length
//	  [24:28]   payload CRC-32C
//	  [28:32]   section count
//	  [32:36]   key length, then the registry key (≤ 512 B)
//	  [1024:]   section table: {id u16, elemSize u16, reserved u32,
//	            count u64, offset u64} per section
//	  [4092:4096] header CRC-32C over [0:4092]
//	payload ([4096:]): the sections' packed records, each section
//	starting on a 4096-byte boundary relative to the payload start.
//
// Sections are block-aligned, level-contiguous runs (the tables are
// heap-ordered, so one level of a table is one contiguous range): after
// Demaine, Iacono & Langerman's external-memory tree layout, a cold
// mmap'd lookup touches O(log_B N) pages per table instead of one page
// per resolution hop. The header block is page 0, so mapped payload
// sections keep page alignment and the zero-copy casts stay aligned.
//
// Decode order is hardened for untrusted bytes: magic → version →
// header CRC → bounds on every declared length (key, section table,
// offsets, counts — all checked against the actual data size before
// anything is trusted; nothing is ever allocated from a declared
// length) → payload CRC → kind codec. Truncations, bit flips and stale
// versions all fail closed; the fuzz targets lock this in.
package mapstore

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/coloring"
	"repro/internal/crcframe"
)

const (
	headerBlock  = 4096
	sectionAlign = 4096
	sectionTable = 1024 // offset of the section table within the header
	sectionSize  = 24   // bytes per section table record
	maxKeyLen    = 512
	maxSections  = (headerBlock - 4 - sectionTable) / sectionSize

	entryMagic    = "PMSTORE1"
	formatVersion = 1
	flagLE        = 1 << 0
)

// Mapping kinds. The kind selects the section codec.
const (
	kindArray     uint16 = 1 // coloring.ArrayMapping (dense colors)
	kindRetriever uint16 = 2 // colormap.Retriever tables
	kindLabelTree uint16 = 3 // labeltree.Mapping micro table
)

// alignUp rounds n up to the next multiple of sectionAlign.
func alignUp(n int64) int64 {
	return (n + sectionAlign - 1) &^ (sectionAlign - 1)
}

// encodeEntry frames the sections into one entry file image.
func encodeEntry(key string, kind uint16, secs []coloring.Section) ([]byte, error) {
	if len(key) == 0 || len(key) > maxKeyLen {
		return nil, fmt.Errorf("mapstore: key of %d bytes outside [1,%d]", len(key), maxKeyLen)
	}
	if len(secs) == 0 || len(secs) > maxSections {
		return nil, fmt.Errorf("mapstore: %d sections outside [1,%d]", len(secs), maxSections)
	}
	offsets := make([]int64, len(secs))
	payloadLen := int64(0)
	for i, sec := range secs {
		if sec.ElemSize == 0 || int64(len(sec.Data))%int64(sec.ElemSize) != 0 {
			return nil, fmt.Errorf("mapstore: section %d: %d bytes not a multiple of %d-byte records", sec.ID, len(sec.Data), sec.ElemSize)
		}
		offsets[i] = alignUp(payloadLen)
		payloadLen = offsets[i] + int64(len(sec.Data))
	}
	buf := make([]byte, headerBlock+payloadLen)
	hdr := buf[:headerBlock]
	crcframe.PutHeader(hdr, entryMagic, formatVersion)
	binary.LittleEndian.PutUint16(hdr[12:14], kind)
	binary.LittleEndian.PutUint16(hdr[14:16], flagLE)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(payloadLen))
	binary.LittleEndian.PutUint32(hdr[28:32], uint32(len(secs)))
	binary.LittleEndian.PutUint32(hdr[32:36], uint32(len(key)))
	copy(hdr[36:], key)
	payload := buf[headerBlock:]
	for i, sec := range secs {
		rec := hdr[sectionTable+sectionSize*i:]
		binary.LittleEndian.PutUint16(rec[0:2], sec.ID)
		binary.LittleEndian.PutUint16(rec[2:4], sec.ElemSize)
		binary.LittleEndian.PutUint64(rec[8:16], uint64(sec.Count()))
		binary.LittleEndian.PutUint64(rec[16:24], uint64(offsets[i]))
		copy(payload[offsets[i]:], sec.Data)
	}
	binary.LittleEndian.PutUint32(hdr[24:28], crcframe.Checksum(payload))
	crcframe.Seal(hdr)
	return buf, nil
}

// entryHeader is the validated header of an entry file.
type entryHeader struct {
	kind       uint16
	key        string
	payloadLen int64
	payloadCRC uint32
	sections   int
}

// parseHeader validates the header block against the total entry size.
// It never trusts a declared length: everything is bounds-checked
// against totalLen and the fixed block geometry first.
func parseHeader(hdr []byte, totalLen int64) (entryHeader, error) {
	var h entryHeader
	if err := crcframe.CheckHeader(hdr, headerBlock, entryMagic, formatVersion); err != nil {
		return h, fmt.Errorf("mapstore: %w", err)
	}
	if flags := binary.LittleEndian.Uint16(hdr[14:16]); flags != flagLE {
		return h, fmt.Errorf("mapstore: unsupported flags %#x", flags)
	}
	h.kind = binary.LittleEndian.Uint16(hdr[12:14])
	h.payloadLen = int64(binary.LittleEndian.Uint64(hdr[16:24]))
	if h.payloadLen < 0 || h.payloadLen != totalLen-headerBlock {
		return h, fmt.Errorf("mapstore: declared payload of %d bytes, file carries %d", h.payloadLen, totalLen-headerBlock)
	}
	h.payloadCRC = binary.LittleEndian.Uint32(hdr[24:28])
	h.sections = int(binary.LittleEndian.Uint32(hdr[28:32]))
	if h.sections < 1 || h.sections > maxSections {
		return h, fmt.Errorf("mapstore: %d sections outside [1,%d]", h.sections, maxSections)
	}
	keyLen := binary.LittleEndian.Uint32(hdr[32:36])
	if keyLen == 0 || keyLen > maxKeyLen {
		return h, fmt.Errorf("mapstore: key of %d bytes outside [1,%d]", keyLen, maxKeyLen)
	}
	h.key = string(hdr[36 : 36+keyLen])
	return h, nil
}

// decodeEntry validates the full entry image and returns its key, kind
// and section views. Section data aliases data — with a zero-copy kind
// codec downstream, the caller must keep data alive (and, for mmap,
// mapped) for the life of the decoded mapping.
func decodeEntry(data []byte) (entryHeader, []coloring.Section, error) {
	h, err := parseHeader(data, int64(len(data)))
	if err != nil {
		return h, nil, err
	}
	payload := data[headerBlock:]
	if got := crcframe.Checksum(payload); got != h.payloadCRC {
		return h, nil, fmt.Errorf("mapstore: payload checksum mismatch: header %#x, computed %#x", h.payloadCRC, got)
	}
	secs := make([]coloring.Section, h.sections)
	for i := range secs {
		rec := data[sectionTable+sectionSize*i : sectionTable+sectionSize*(i+1)]
		id := binary.LittleEndian.Uint16(rec[0:2])
		elemSize := binary.LittleEndian.Uint16(rec[2:4])
		count := binary.LittleEndian.Uint64(rec[8:16])
		offset := binary.LittleEndian.Uint64(rec[16:24])
		if elemSize == 0 {
			return h, nil, fmt.Errorf("mapstore: section %d: zero record size", id)
		}
		if offset%sectionAlign != 0 || offset > uint64(h.payloadLen) {
			return h, nil, fmt.Errorf("mapstore: section %d: offset %d unaligned or outside payload", id, offset)
		}
		if count > (uint64(h.payloadLen)-offset)/uint64(elemSize) {
			return h, nil, fmt.Errorf("mapstore: section %d: %d×%d-byte records overflow payload", id, count, elemSize)
		}
		byteLen := count * uint64(elemSize)
		secs[i] = coloring.Section{ID: id, ElemSize: elemSize, Data: payload[offset : offset+byteLen]}
	}
	return h, secs, nil
}

// readEntryHeader opens an entry file and validates its header block
// only — the cheap per-file check Open runs over the whole directory.
// The payload checksum is deferred to the first Get.
func readEntryHeader(path string) (entryHeader, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return entryHeader{}, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return entryHeader{}, 0, err
	}
	var hdr [headerBlock]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return entryHeader{}, 0, fmt.Errorf("mapstore: reading header: %w", err)
	}
	h, err := parseHeader(hdr[:], st.Size())
	return h, st.Size(), err
}
