package coloring

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"unsafe"

	"repro/internal/crcframe"
	"repro/internal/tree"
)

// Serialization of materialized mappings, so that an expensive coloring
// (or one that must be byte-identical across runs) can be computed once
// and shipped to the machines that will address the memory system.
//
// Format v2 (little endian):
//
//	magic   [8]byte  "TREEMAP2"
//	levels  uint32
//	modules uint32
//	nameLen uint32, name [nameLen]byte
//	colors  [2^levels - 1]int32
//	crc     uint32   CRC-32C (internal/crcframe) over every preceding byte
//
// v1 ("TREEMAP1") is the same layout without the trailing checksum;
// LoadMapping still reads it, Save always writes v2. The golden fixtures
// under internal/mapstore/testdata pin both layouts byte-for-byte.
//
// The color array is encoded and decoded in fixed-size chunks with
// explicit little-endian byte packing rather than binary.Write/Read:
// the reflection-based encoding of an []int32 walks the slice through
// reflect per element, which dominated Save/Load profiles on large trees.
// The same chunked non-reflective packing (AppendInt32sLE / Int32sLE)
// is reused by the colormap / labeltree section codecs feeding the
// mapstore disk tier.

var (
	magicV1 = [8]byte{'T', 'R', 'E', 'E', 'M', 'A', 'P', '1'}
	magicV2 = [8]byte{'T', 'R', 'E', 'E', 'M', 'A', 'P', '2'}
)

// serializeChunk is the number of colors encoded per I/O chunk (256 KiB of
// wire data), bounding both the scratch buffer and how much a lying header
// can make Load allocate before the stream runs dry.
const serializeChunk = 1 << 16

// Save writes the mapping in the v2 binary format above.
func (a *ArrayMapping) Save(w io.Writer) error {
	sum := crcframe.New()
	bw := bufio.NewWriter(io.MultiWriter(w, sum))
	if _, err := bw.Write(magicV2[:]); err != nil {
		return err
	}
	name := []byte(a.AlgName)
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(a.T.Levels()))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(a.M))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(name)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := bw.Write(name); err != nil {
		return err
	}
	buf := make([]byte, 4*serializeChunk)
	for off := 0; off < len(a.Colors); off += serializeChunk {
		end := off + serializeChunk
		if end > len(a.Colors) {
			end = len(a.Colors)
		}
		chunk := a.Colors[off:end]
		for i, c := range chunk {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(c))
		}
		if _, err := bw.Write(buf[:4*len(chunk)]); err != nil {
			return err
		}
	}
	// The footer checksums everything already flushed through the
	// MultiWriter, so it must not pass through sum itself.
	if err := bw.Flush(); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], sum.Sum32())
	_, err := w.Write(crc[:])
	return err
}

// LoadMapping reads a mapping previously written by Save, validating the
// header, the checksum (v2) and every color. v1 files (no checksum) are
// still accepted.
func LoadMapping(r io.Reader) (*ArrayMapping, error) {
	br := bufio.NewReader(r)
	var gotMagic [8]byte
	if _, err := io.ReadFull(br, gotMagic[:]); err != nil {
		return nil, fmt.Errorf("coloring: reading magic: %w", err)
	}
	v2 := gotMagic == magicV2
	if !v2 && gotMagic != magicV1 {
		return nil, fmt.Errorf("coloring: bad magic %q", gotMagic)
	}
	var body io.Reader = br
	var sum hash.Hash32
	if v2 {
		sum = crcframe.New()
		sum.Write(gotMagic[:])
		body = io.TeeReader(br, sum)
	}
	var hdr [12]byte
	if _, err := io.ReadFull(body, hdr[:]); err != nil {
		return nil, fmt.Errorf("coloring: reading header: %w", err)
	}
	levels := binary.LittleEndian.Uint32(hdr[0:4])
	modules := binary.LittleEndian.Uint32(hdr[4:8])
	nameLen := binary.LittleEndian.Uint32(hdr[8:12])
	// Materialized mappings are capped at 2^28-1 nodes; larger trees should
	// use the algorithmic retrievers rather than dense arrays.
	const maxLevels = 28
	if levels < 1 || levels > maxLevels {
		return nil, fmt.Errorf("coloring: levels %d out of range [1,%d]", levels, maxLevels)
	}
	if modules < 1 || modules > 1<<30 {
		return nil, fmt.Errorf("coloring: modules %d out of range", modules)
	}
	if nameLen > 4096 {
		return nil, fmt.Errorf("coloring: name length %d too large", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(body, name); err != nil {
		return nil, fmt.Errorf("coloring: reading name: %w", err)
	}
	// Read colors in bounded chunks so a truncated or lying header fails
	// after at most one chunk, not after allocating the whole array.
	t := tree.New(int(levels))
	total := t.Nodes()
	colors := make([]int32, 0, minInt64(total, serializeChunk))
	raw := make([]byte, 4*serializeChunk)
	for int64(len(colors)) < total {
		want := total - int64(len(colors))
		if want > serializeChunk {
			want = serializeChunk
		}
		if _, err := io.ReadFull(body, raw[:4*want]); err != nil {
			return nil, fmt.Errorf("coloring: reading colors: %w", err)
		}
		for i := int64(0); i < want; i++ {
			colors = append(colors, int32(binary.LittleEndian.Uint32(raw[4*i:])))
		}
	}
	if v2 {
		var footer [4]byte
		// The footer is read from br, not body: it must not feed the sum.
		if _, err := io.ReadFull(br, footer[:]); err != nil {
			return nil, fmt.Errorf("coloring: reading checksum: %w", err)
		}
		if got := binary.LittleEndian.Uint32(footer[:]); got != sum.Sum32() {
			return nil, fmt.Errorf("coloring: checksum mismatch: file %#x, computed %#x", got, sum.Sum32())
		}
	}
	a := &ArrayMapping{T: t, Colors: colors, M: int(modules), AlgName: string(name)}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------------
// Section codec: the shared machinery under the mapstore disk tier.
//
// A serialized mapping artifact is a list of typed sections — flat packed
// tables, each a run of fixed-size little-endian records. The framing
// (header, checksums, block alignment) belongs to internal/mapstore; this
// package owns the element packing so the colormap / labeltree codecs and
// the TREEMAP stream format share one non-reflective implementation.

// Section is one typed table of a serialized mapping artifact. Data holds
// ElemSize-byte little-endian records back to back.
type Section struct {
	ID       uint16
	ElemSize uint16
	Data     []byte
}

// Count returns the number of records in the section.
func (s Section) Count() int64 {
	if s.ElemSize == 0 {
		return 0
	}
	return int64(len(s.Data)) / int64(s.ElemSize)
}

// hostLittleEndian reports whether the host stores integers little
// endian, the precondition for the zero-copy decode paths below.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// AppendInt32sLE appends src as packed little-endian int32 records.
func AppendInt32sLE(dst []byte, src []int32) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, 4*len(src))...)
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[off+4*i:], uint32(v))
	}
	return dst
}

// Int32sLE decodes packed little-endian int32 records. When zeroCopy is
// set and the host layout matches the wire layout (little-endian, data
// 4-aligned), the returned slice aliases b — the caller must keep b alive
// and unmodified for the life of the result (the mapstore mmap contract).
// Otherwise the records are copied out, which doubles as the portable
// read()+copy fallback.
func Int32sLE(b []byte, zeroCopy bool) ([]int32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("coloring: int32 section of %d bytes not a record multiple", len(b))
	}
	n := len(b) / 4
	if n == 0 {
		return nil, nil
	}
	if zeroCopy && hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, nil
}

// Section IDs of the ArrayMapping artifact (kind "array" in mapstore).
const (
	SectionArrayMeta   = 0 // levels u32, modules u32, nameLen u32, name
	SectionArrayColors = 1 // [2^levels-1]int32
)

// maxSectionNameLen bounds the algorithm name carried in an array meta
// section, mirroring the TREEMAP stream cap.
const maxSectionNameLen = 4096

// EncodeSections serializes the mapping as typed sections for the
// mapstore disk tier. The colors section uses the same packed int32
// layout as the TREEMAP stream format.
func (a *ArrayMapping) EncodeSections() []Section {
	meta := make([]byte, 12, 12+len(a.AlgName))
	binary.LittleEndian.PutUint32(meta[0:4], uint32(a.T.Levels()))
	binary.LittleEndian.PutUint32(meta[4:8], uint32(a.M))
	binary.LittleEndian.PutUint32(meta[8:12], uint32(len(a.AlgName)))
	meta = append(meta, a.AlgName...)
	return []Section{
		{ID: SectionArrayMeta, ElemSize: 1, Data: meta},
		{ID: SectionArrayColors, ElemSize: 4, Data: AppendInt32sLE(nil, a.Colors)},
	}
}

// DecodeArraySections rebuilds an ArrayMapping from its sections,
// validating the parameters and every color. With zeroCopy the color
// array aliases the section data (see Int32sLE).
func DecodeArraySections(secs []Section, zeroCopy bool) (*ArrayMapping, error) {
	meta, err := SectionByID(secs, SectionArrayMeta)
	if err != nil {
		return nil, err
	}
	colorsSec, err := SectionByID(secs, SectionArrayColors)
	if err != nil {
		return nil, err
	}
	if len(meta.Data) < 12 {
		return nil, fmt.Errorf("coloring: array meta section of %d bytes", len(meta.Data))
	}
	levels := binary.LittleEndian.Uint32(meta.Data[0:4])
	modules := binary.LittleEndian.Uint32(meta.Data[4:8])
	nameLen := binary.LittleEndian.Uint32(meta.Data[8:12])
	const maxLevels = 28
	if levels < 1 || levels > maxLevels {
		return nil, fmt.Errorf("coloring: levels %d out of range [1,%d]", levels, maxLevels)
	}
	if modules < 1 || modules > 1<<30 {
		return nil, fmt.Errorf("coloring: modules %d out of range", modules)
	}
	if nameLen > maxSectionNameLen || int64(nameLen) != int64(len(meta.Data)-12) {
		return nil, fmt.Errorf("coloring: array meta name length %d does not match section", nameLen)
	}
	t := tree.New(int(levels))
	colors, err := Int32sLE(colorsSec.Data, zeroCopy)
	if err != nil {
		return nil, err
	}
	if int64(len(colors)) != t.Nodes() {
		return nil, fmt.Errorf("coloring: %d colors for a %d-level tree (want %d)", len(colors), levels, t.Nodes())
	}
	a := &ArrayMapping{T: t, Colors: colors, M: int(modules), AlgName: string(meta.Data[12:])}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// SectionByID returns the unique section with the given ID, rejecting
// artifacts with a missing or duplicated table.
func SectionByID(secs []Section, id uint16) (Section, error) {
	found := -1
	for i, s := range secs {
		if s.ID == id {
			if found >= 0 {
				return Section{}, fmt.Errorf("coloring: duplicate section %d", id)
			}
			found = i
		}
	}
	if found < 0 {
		return Section{}, fmt.Errorf("coloring: missing section %d", id)
	}
	return secs[found], nil
}

// HasSection reports whether a section with the given ID is present.
func HasSection(secs []Section, id uint16) bool {
	for _, s := range secs {
		if s.ID == id {
			return true
		}
	}
	return false
}
