// The store manifest: a small checksummed sidecar holding per-entry heat
// (hit counts, last access) so a restarted pmsd can pre-admit the
// hottest specs. The manifest is advisory — entry files are fully
// self-describing (key in the header, payload CRC), so a missing or
// corrupt manifest costs only the heat ordering, never data. Like the
// entries it is written with crcframe.WriteFile, so a crash leaves
// either the old or the new manifest, never a torn one.
//
// Format: magic "PMSMANI1" | version u32 | payloadLen u32 |
// payloadCRC u32 | JSON payload.
package mapstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"repro/internal/crcframe"
)

const (
	manifestName    = "MANIFEST"
	manifestMagic   = "PMSMANI1"
	manifestVersion = 1
	// maxManifestLen bounds the declared payload so a corrupt length
	// cannot drive allocation (the JSON for even millions of entries
	// stays far below this).
	maxManifestLen = 1 << 26
)

// manifestEntry is one entry's persisted heat record.
type manifestEntry struct {
	Key        string `json:"key"`
	File       string `json:"file"`
	Bytes      int64  `json:"bytes"`
	Hits       int64  `json:"hits"`
	LastAccess int64  `json:"last_access_unix_ns"`
}

type manifest struct {
	Entries []manifestEntry `json:"entries"`
	// Decisions persists the adaptive controller's migration choices:
	// requested spec key → JSON-encoded effective mapping spec. A warm
	// start re-applies them so a restarted pmsd keeps serving the
	// migrated algorithm. The field is optional, so manifests written by
	// older processes decode cleanly.
	Decisions map[string]string `json:"decisions,omitempty"`
}

// encodeManifest frames the manifest JSON with magic and checksum.
func encodeManifest(m manifest) ([]byte, error) {
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 20, 20+len(payload))
	crcframe.PutHeader(buf, manifestMagic, manifestVersion)
	binary.LittleEndian.PutUint32(buf[12:16], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[16:20], crcframe.Checksum(payload))
	return append(buf, payload...), nil
}

// decodeManifest validates and parses a manifest image.
func decodeManifest(data []byte) (manifest, error) {
	var m manifest
	if len(data) < 20 {
		return m, fmt.Errorf("mapstore: manifest of %d bytes below header", len(data))
	}
	if string(data[0:8]) != manifestMagic {
		return m, fmt.Errorf("mapstore: bad manifest magic %q", data[0:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != manifestVersion {
		return m, fmt.Errorf("mapstore: unsupported manifest version %d", v)
	}
	payloadLen := binary.LittleEndian.Uint32(data[12:16])
	if payloadLen > maxManifestLen || int64(payloadLen) != int64(len(data)-20) {
		return m, fmt.Errorf("mapstore: declared manifest payload of %d bytes, file carries %d", payloadLen, len(data)-20)
	}
	payload := data[20:]
	if got, want := binary.LittleEndian.Uint32(data[16:20]), crcframe.Checksum(payload); got != want {
		return m, fmt.Errorf("mapstore: manifest checksum mismatch: file %#x, computed %#x", got, want)
	}
	if err := json.Unmarshal(payload, &m); err != nil {
		return m, fmt.Errorf("mapstore: manifest JSON: %w", err)
	}
	return m, nil
}
