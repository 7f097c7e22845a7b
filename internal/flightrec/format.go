// PMSINC1: the incident snapshot wire format, framed with
// internal/crcframe. One sealed header (magic, version, section count,
// CRC-32C over the header) followed by named, individually checksummed
// sections:
//
//	header   = "PMSINC1\n" | u32 version | u32 sections | u32 crc(header[:16])
//	section  = u32 nameLen | name | u32 dataLen | data | u32 crc(name||data)
//
// Sections carry JSON documents ("meta", "events", "frames",
// "decisions", "traces") plus the raw PMSTRC1 bytes of the replay
// window ("trace"). Everything is little-endian. Decoding is strict
// about structure — every truncation and bit flip surfaces as an error
// before any oversized allocation — but tolerant of unknown section
// names (checksummed, then skipped), so older readers survive newer
// writers. Files are written with crcframe.WriteFile, so a kill
// mid-write never leaves a corrupt incident behind.
package flightrec

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/crcframe"
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
	out := make([]byte, incHeaderSize, size)
	crcframe.PutHeader(out, incMagic, incVersion)
	binary.LittleEndian.PutUint32(out[12:16], uint32(len(secs)))
	crcframe.Seal(out)
	for _, s := range secs {
		out = crcframe.AppendChunk(out, []byte(s.name))
		out = crcframe.AppendChunk(out, s.data)
		out = crcframe.AppendU32(out, crcframe.Update(crcframe.Checksum([]byte(s.name)), s.data))
	}
	return out, nil
}

// DecodeIncident parses a PMSINC1 document. Corruption — truncation, bit
// flips, stale versions, lying lengths — returns an error; it never
// panics (FuzzDecodeIncident holds it to that).
func DecodeIncident(data []byte) (*Incident, error) {
	if err := crcframe.CheckHeader(data, incHeaderSize, incMagic, incVersion); err != nil {
		return nil, fmt.Errorf("flightrec: %w", err)
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
			err = json.Unmarshal(body, &inc.Meta)
		case "events":
			err = json.Unmarshal(body, &inc.Events)
		case "frames":
			err = json.Unmarshal(body, &inc.Frames)
		case "decisions":
			err = json.Unmarshal(body, &inc.Decisions)
		case "traces":
			err = json.Unmarshal(body, &inc.Traces)
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

// readSection parses one section off the front of data.
func readSection(data []byte) (name string, body, rest []byte, err error) {
	nameBytes, rest, err := crcframe.ReadChunk(data, maxSectionName)
	if err != nil {
		return "", nil, nil, fmt.Errorf("name: %w", err)
	}
	if len(nameBytes) == 0 {
		return "", nil, nil, errors.New("empty name")
	}
	if body, rest, err = crcframe.ReadChunk(rest, maxSectionBytes); err != nil {
		return "", nil, nil, fmt.Errorf("data: %w", err)
	}
	want, rest, err := crcframe.ReadU32(rest)
	if err != nil {
		return "", nil, nil, fmt.Errorf("checksum: %w", err)
	}
	if got := crcframe.Update(crcframe.Checksum(nameBytes), body); got != want {
		return "", nil, nil, fmt.Errorf("checksum mismatch: file %08x, computed %08x", want, got)
	}
	return string(nameBytes), body, rest, nil
}

// WriteIncident persists the incident under dir as
// incident-<created µs>.pmsinc with crcframe.WriteFile and returns the
// final path. A crash mid-write leaves at most a stale *.tmp, which the
// *.pmsinc scan never reads.
func WriteIncident(dir string, inc *Incident) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := EncodeIncident(inc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("incident-%016d.pmsinc", inc.Meta.CreatedUS))
	if err := crcframe.WriteFile(path, data); err != nil {
		return "", err
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
