// Package replay captures a live pmsd request stream into a versioned,
// checksummed trace file and replays it deterministically, so a captured
// production-like workload becomes a reproducible benchmark.
//
// Three pieces compose:
//
//   - the trace format (PMSTRC1): a checksummed header carrying the
//     workload seed, followed by self-delimiting records — one per
//     captured request, each holding the endpoint path, the tenant and
//     the raw JSON body under its own CRC-32C. Truncation, bit flips and
//     lying length prefixes are decode errors, never panics, and every
//     allocation is validated against the remaining input first;
//   - the Tape: the ordered list a whole run is recorded into. pmsd's
//     capture point (internal/server) reads each request body once and
//     appends it here on arrival, so recording costs one mutex append;
//   - the Replayer: drives a handler with the recorded requests, one at
//     a time in recorded order, folding every response into one SHA-256
//     digest over (status, body) pairs. Sequential replay is the
//     determinism contract: the same trace against the same server
//     configuration and seed produces a bit-identical digest, because no
//     scheduling race can reorder requests or regroup coalesced batches.
//
// What is and is not guaranteed: replay-to-replay determinism, not
// live-to-replay identity. A live run answers requests concurrently
// (batches coalesce differently, admission may shed load), so the
// responses captured live are not the replay baseline — the first replay
// is, and every later replay must match it bit for bit.
package replay

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"

	"repro/internal/crcframe"
)

// Format constants. The magic pins both the format family and, via the
// trailing digit, the major version; the header version field tracks
// compatible revisions.
const (
	magic   = "PMSTRC1\n"
	version = 1

	headerSize = 28 // magic(8) + version(4) + seed(8) + count(4) + crc(4)

	// maxRecords bounds the header's record count so a corrupt count
	// cannot drive a huge allocation.
	maxRecords = 1 << 24

	// MaxFrame bounds one record's encoded frame; a length prefix above
	// it is rejected before any allocation.
	MaxFrame = 4 << 20

	// TenantHeader is the HTTP header the capture point records and the
	// replayer restores, so per-tenant admission replays identically.
	TenantHeader = "X-Tenant"
)

// Record is one captured request: the endpoint path, the tenant it was
// issued under, and the raw request body.
type Record struct {
	Path   string
	Tenant string
	Body   []byte
}

// Trace is a decoded trace file: the seed of the workload that produced
// the stream plus the captured records in arrival order.
type Trace struct {
	Seed    int64
	Records []Record
}

// Encode renders the trace in the PMSTRC1 wire format: the sealed
// header, then per record a u32-length-prefixed frame of three chunks
// (path, tenant, body) followed by the frame's CRC-32C. Encoding is
// canonical: Decode(Encode(tr)) round-trips to byte-identical output.
func Encode(tr *Trace) []byte {
	size := headerSize
	for _, r := range tr.Records {
		size += 20 + len(r.Path) + len(r.Tenant) + len(r.Body)
	}
	out := make([]byte, headerSize, size)
	crcframe.PutHeader(out, magic, version)
	binary.LittleEndian.PutUint64(out[12:20], uint64(tr.Seed))
	binary.LittleEndian.PutUint32(out[20:24], uint32(len(tr.Records)))
	crcframe.Seal(out)
	for _, r := range tr.Records {
		out = crcframe.AppendU32(out, uint32(12+len(r.Path)+len(r.Tenant)+len(r.Body)))
		start := len(out)
		out = crcframe.AppendChunk(out, []byte(r.Path))
		out = crcframe.AppendChunk(out, []byte(r.Tenant))
		out = crcframe.AppendChunk(out, r.Body)
		out = crcframe.AppendU32(out, crcframe.Checksum(out[start:]))
	}
	return out
}

// Decode parses a PMSTRC1 trace. Any corruption — truncation, a flipped
// bit under a CRC, a length prefix past the input — is an error; the
// fuzz target locks in that no input panics or over-allocates.
func Decode(data []byte) (*Trace, error) {
	if err := crcframe.CheckHeader(data, headerSize, magic, version); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	count := binary.LittleEndian.Uint32(data[20:24])
	if count > maxRecords {
		return nil, fmt.Errorf("replay: record count %d above cap %d", count, maxRecords)
	}
	tr := &Trace{Seed: int64(binary.LittleEndian.Uint64(data[12:20]))}

	rest := data[headerSize:]
	for uint32(len(tr.Records)) < count {
		rec, tail, err := decodeRecord(rest)
		if err != nil {
			return nil, fmt.Errorf("replay: record %d: %w", len(tr.Records), err)
		}
		tr.Records = append(tr.Records, rec)
		rest = tail
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("replay: %d trailing bytes after %d records", len(rest), count)
	}
	return tr, nil
}

// decodeRecord pops one checksummed record frame off data.
func decodeRecord(data []byte) (rec Record, rest []byte, err error) {
	frame, rest, err := crcframe.ReadChunk(data, MaxFrame)
	if err != nil {
		return rec, nil, fmt.Errorf("frame: %w", err)
	}
	crc, rest, err := crcframe.ReadU32(rest)
	if err != nil {
		return rec, nil, fmt.Errorf("checksum: %w", err)
	}
	if got := crcframe.Checksum(frame); got != crc {
		return rec, nil, fmt.Errorf("checksum mismatch: file %08x, computed %08x", crc, got)
	}
	var path, tenant, body []byte
	if path, frame, err = crcframe.ReadChunk(frame, MaxFrame); err != nil {
		return rec, nil, fmt.Errorf("path: %w", err)
	}
	if tenant, frame, err = crcframe.ReadChunk(frame, MaxFrame); err != nil {
		return rec, nil, fmt.Errorf("tenant: %w", err)
	}
	if body, frame, err = crcframe.ReadChunk(frame, MaxFrame); err != nil {
		return rec, nil, fmt.Errorf("body: %w", err)
	}
	if len(frame) != 0 {
		return rec, nil, fmt.Errorf("%d trailing frame bytes", len(frame))
	}
	return Record{Path: string(path), Tenant: string(tenant), Body: append([]byte(nil), body...)}, rest, nil
}

// Save writes the trace to path with crcframe.WriteFile, so a crash
// mid-write never leaves a half-trace under the final name.
func (tr *Trace) Save(path string) error { return crcframe.WriteFile(path, Encode(tr)) }

// Load reads and decodes a trace file.
func Load(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// Tape is the whole-run capture target behind pmsd -record: the
// server's capture point appends each request on arrival, and Trace
// returns the taped requests in that order. Unlike the flight
// recorder's ring it keeps the run's first requests rather than its
// last: it holds up to maxRecords, the most Decode accepts in one
// trace, and counts every request past that as dropped, so a long run
// never saves a trace its own replay rejects. Safe for concurrent use;
// a nil *Tape records nothing.
type Tape struct {
	seed    int64
	max     int // records kept; appends past it count as drops
	mu      sync.Mutex
	records []Record
	dropped int64
}

// NewTape starts an empty tape whose trace header carries seed (the
// seed of the workload generator that produced the stream, for
// provenance).
func NewTape(seed int64) *Tape { return &Tape{seed: seed, max: maxRecords} }

// Append tapes one request, or counts it as dropped once the tape is
// full.
func (t *Tape) Append(r Record) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.records) < t.max {
		t.records = append(t.records, r)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Drop counts one request that could not be taped: its body was over
// the size cap or could not be read.
func (t *Tape) Drop() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.dropped++
	t.mu.Unlock()
}

// Trace returns the requests taped so far, in arrival order, and how
// many were dropped.
func (t *Tape) Trace() (tr *Trace, dropped int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return &Trace{Seed: t.seed, Records: t.records[:len(t.records):len(t.records)]}, t.dropped
}

// Result summarizes one replay.
type Result struct {
	// Requests is the number of records replayed.
	Requests int `json:"requests"`
	// StatusCounts maps HTTP status → responses with that status.
	StatusCounts map[int]int64 `json:"status_counts"`
	// Digest is the hex SHA-256 over every (status, body) response pair
	// in replay order — the bit-identity witness. Headers are excluded
	// by design (request IDs are random).
	Digest string `json:"digest"`
}

// Replay drives the handler with the trace's records, one at a time in
// recorded order, and digests the responses. Sequential issue is what
// makes the digest deterministic: run it twice against identically
// configured servers and the digests must be equal.
func Replay(h http.Handler, tr *Trace) Result {
	res := Result{Requests: len(tr.Records), StatusCounts: make(map[int]int64)}
	dig := sha256.New()
	var u32 [4]byte
	for _, r := range tr.Records {
		req := httptest.NewRequest(http.MethodPost, "http://replay"+r.Path, bytes.NewReader(r.Body))
		req.Header.Set("Content-Type", "application/json")
		if r.Tenant != "" {
			req.Header.Set(TenantHeader, r.Tenant)
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		res.StatusCounts[rr.Code]++
		binary.LittleEndian.PutUint32(u32[:], uint32(rr.Code))
		dig.Write(u32[:])
		body := rr.Body.Bytes()
		binary.LittleEndian.PutUint32(u32[:], uint32(len(body)))
		dig.Write(u32[:])
		dig.Write(body)
	}
	res.Digest = hex.EncodeToString(dig.Sum(nil))
	return res
}
