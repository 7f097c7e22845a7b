// PMSINC1: the incident snapshot wire format. One fixed header (magic,
// version, section count, CRC-32C over the header) followed by named,
// individually checksummed sections:
//
//	header   = "PMSINC1\n" | u32 version | u32 sections | u32 crc(header[:16])
//	section  = u32 nameLen | name | u32 dataLen | data | u32 crc(name||data)
//
// Sections carry JSON documents ("meta", "events", "frames",
// "decisions", "traces") plus the raw PMSTRC1 bytes of the replay
// window ("trace"). Everything little-endian, CRC-32C (Castagnoli),
// matching internal/replay and internal/mapstore. Decoding is strict
// about structure — every truncation and bit flip surfaces as an error
// before any oversized allocation — but tolerant of unknown section
// names (checksummed, then skipped), so older readers survive newer
// writers. Files are written atomically (tmp + fsync + rename + dir
// fsync), mirroring the mapstore spill protocol, so a kill mid-write
// never leaves a corrupt incident behind.
package flightrec

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/obsv"
	"repro/internal/replay"
)

const (
	incMagic   = "PMSINC1\n"
	incVersion = 1
	// incHeaderSize is magic(8) + version(4) + sections(4) + crc(4).
	incHeaderSize = 20

	// maxSections and maxSectionBytes cap what a decoder will allocate
	// for; a lying header cannot drive a huge allocation.
	maxSections     = 64
	maxSectionBytes = 256 << 20
	maxSectionName  = 64
)

var incCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// IncidentMeta is the incident's header document: when and why it was
// cut, the breaches that fired, the SLO config in force, the recorder's
// counters at freeze, and free-form metadata (pmsd stamps the chaos
// injector config here so pmsdoctor -replay can rebuild it).
type IncidentMeta struct {
	CreatedUS int64             `json:"created_us"`
	Reason    string            `json:"reason"`
	Breaches  []Breach          `json:"breaches,omitempty"`
	SLO       SLOConfig         `json:"slo"`
	Counters  CountersSnapshot  `json:"counters"`
	Meta      map[string]string `json:"meta,omitempty"`
}

// Incident is one frozen flight-recorder state: the black box contents
// at a breach (or on demand via /debug/snapshot).
type Incident struct {
	Meta      IncidentMeta         `json:"meta"`
	Events    []Event              `json:"events,omitempty"`
	Frames    []MetricFrame        `json:"frames,omitempty"`
	Decisions []Decision           `json:"decisions,omitempty"`
	Traces    []obsv.TraceSnapshot `json:"traces,omitempty"`
	// Trace is the replayable PMSTRC1 window: the journaled requests that
	// carried a body, in arrival order (nil when the incident file has
	// no trace section).
	Trace *replay.Trace `json:"-"`
}

// EncodeIncident renders the incident in the PMSINC1 wire format.
// Encoding is canonical: DecodeIncident(EncodeIncident(inc)) round-trips.
func EncodeIncident(inc *Incident) ([]byte, error) {
	type section struct {
		name string
		data []byte
	}
	var secs []section
	add := func(name string, v any) error {
		data, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("flightrec: encode %s: %w", name, err)
		}
		secs = append(secs, section{name, data})
		return nil
	}
	if err := add("meta", inc.Meta); err != nil {
		return nil, err
	}
	if err := add("events", inc.Events); err != nil {
		return nil, err
	}
	if err := add("frames", inc.Frames); err != nil {
		return nil, err
	}
	if err := add("decisions", inc.Decisions); err != nil {
		return nil, err
	}
	if err := add("traces", inc.Traces); err != nil {
		return nil, err
	}
	if inc.Trace != nil {
		secs = append(secs, section{"trace", replay.Encode(inc.Trace)})
	}

	size := incHeaderSize
	for _, s := range secs {
		size += 12 + len(s.name) + len(s.data)
	}
	out := make([]byte, 0, size)
	var hdr [incHeaderSize]byte
	copy(hdr[:8], incMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], incVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(secs)))
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.Checksum(hdr[:16], incCastagnoli))
	out = append(out, hdr[:]...)

	var u32 [4]byte
	for _, s := range secs {
		binary.LittleEndian.PutUint32(u32[:], uint32(len(s.name)))
		out = append(out, u32[:]...)
		out = append(out, s.name...)
		binary.LittleEndian.PutUint32(u32[:], uint32(len(s.data)))
		out = append(out, u32[:]...)
		out = append(out, s.data...)
		crc := crc32.Checksum([]byte(s.name), incCastagnoli)
		crc = crc32.Update(crc, incCastagnoli, s.data)
		binary.LittleEndian.PutUint32(u32[:], crc)
		out = append(out, u32[:]...)
	}
	return out, nil
}

// DecodeIncident parses a PMSINC1 document. Corruption — truncation, bit
// flips, stale versions, lying lengths — returns an error; it never
// panics (FuzzDecodeIncident holds it to that).
func DecodeIncident(data []byte) (*Incident, error) {
	if len(data) < incHeaderSize {
		return nil, fmt.Errorf("flightrec: truncated header: %d bytes", len(data))
	}
	if string(data[:8]) != incMagic {
		return nil, errors.New("flightrec: bad magic")
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != incVersion {
		return nil, fmt.Errorf("flightrec: unsupported version %d", v)
	}
	if got, want := crc32.Checksum(data[:16], incCastagnoli), binary.LittleEndian.Uint32(data[16:20]); got != want {
		return nil, fmt.Errorf("flightrec: header checksum mismatch: %08x != %08x", got, want)
	}
	nsec := binary.LittleEndian.Uint32(data[12:16])
	if nsec > maxSections {
		return nil, fmt.Errorf("flightrec: section count %d exceeds cap %d", nsec, maxSections)
	}

	inc := &Incident{}
	rest := data[incHeaderSize:]
	seen := make(map[string]bool, nsec)
	for i := uint32(0); i < nsec; i++ {
		name, body, tail, err := readSection(rest)
		if err != nil {
			return nil, fmt.Errorf("flightrec: section %d: %w", i, err)
		}
		rest = tail
		if seen[name] {
			return nil, fmt.Errorf("flightrec: duplicate section %q", name)
		}
		seen[name] = true
		switch name {
		case "meta":
			err = strictUnmarshal(body, &inc.Meta)
		case "events":
			err = strictUnmarshal(body, &inc.Events)
		case "frames":
			err = strictUnmarshal(body, &inc.Frames)
		case "decisions":
			err = strictUnmarshal(body, &inc.Decisions)
		case "traces":
			err = strictUnmarshal(body, &inc.Traces)
		case "trace":
			inc.Trace, err = replay.Decode(body)
		default:
			// Unknown but checksummed: a newer writer's section; skip.
		}
		if err != nil {
			return nil, fmt.Errorf("flightrec: section %q: %w", name, err)
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("flightrec: %d trailing bytes after last section", len(rest))
	}
	if !seen["meta"] {
		return nil, errors.New("flightrec: missing meta section")
	}
	return inc, nil
}

func strictUnmarshal(data []byte, v any) error {
	return json.Unmarshal(data, v)
}

// readSection parses one section off the front of data.
func readSection(data []byte) (name string, body, rest []byte, err error) {
	if len(data) < 4 {
		return "", nil, nil, errors.New("truncated name length")
	}
	nameLen := binary.LittleEndian.Uint32(data[:4])
	if nameLen == 0 || nameLen > maxSectionName {
		return "", nil, nil, fmt.Errorf("name length %d out of range", nameLen)
	}
	data = data[4:]
	if uint32(len(data)) < nameLen {
		return "", nil, nil, errors.New("truncated name")
	}
	nameBytes := data[:nameLen]
	data = data[nameLen:]
	if len(data) < 4 {
		return "", nil, nil, errors.New("truncated data length")
	}
	dataLen := binary.LittleEndian.Uint32(data[:4])
	if dataLen > maxSectionBytes {
		return "", nil, nil, fmt.Errorf("data length %d exceeds cap", dataLen)
	}
	data = data[4:]
	if uint64(len(data)) < uint64(dataLen)+4 {
		return "", nil, nil, errors.New("truncated data")
	}
	body = data[:dataLen]
	want := binary.LittleEndian.Uint32(data[dataLen : dataLen+4])
	crc := crc32.Checksum(nameBytes, incCastagnoli)
	crc = crc32.Update(crc, incCastagnoli, body)
	if crc != want {
		return "", nil, nil, fmt.Errorf("checksum mismatch: %08x != %08x", crc, want)
	}
	return string(nameBytes), body, data[dataLen+4:], nil
}

// WriteIncident persists the incident atomically under dir as
// incident-<created µs>.pmsinc and returns the final path. The write
// protocol is tmp + fsync + rename + directory fsync — the mapstore
// spill discipline — so a crash mid-write leaves at most a stale *.tmp,
// never a partial incident.
func WriteIncident(dir string, inc *Incident) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := EncodeIncident(inc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("incident-%016d.pmsinc", inc.Meta.CreatedUS))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return path, nil
}

// ReadIncident loads and decodes one incident file.
func ReadIncident(path string) (*Incident, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeIncident(data)
}
