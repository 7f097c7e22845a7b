// PMSINC1 wire-format contract: canonical round-trips, and every
// corruption mode — truncation, bit flips, stale versions, partial
// crash leftovers — surfaces as an error before any oversized
// allocation, mirroring the mapstore/replay decode tests.
package flightrec

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/replay"
)

// incCastagnoli is the tests' own CRC-32C table, so the checksums they
// forge are computed independently of the code under test.
var incCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// sampleIncident exercises every section, including the raw PMSTRC1
// trace payload.
func sampleIncident() *Incident {
	return &Incident{
		Meta: IncidentMeta{
			CreatedUS: 1_700_000_123_456_789,
			Reason:    "watchdog",
			Breaches: []Breach{{
				Rule: RuleErrorRate, TS: 1_700_000_123_000_000,
				Value: 42.5, Threshold: 5, WindowUS: 10_000_000, Requests: 80,
			}},
			SLO:      SLOConfig{Window: 10 * time.Second, ErrorRatePct: 5}.withDefaults(),
			Counters: CountersSnapshot{Events: 80, Breaches: 1, RuleBreaches: map[string]int64{RuleErrorRate: 1}},
			Meta:     map[string]string{"chaos_config": `{"Seed":7}`},
		},
		Events: []Event{
			{TS: 1, Tenant: "t1", Endpoint: "color", Requested: "color/H=12/M=15", Effective: "mod/M=15", Status: 200, TotalUS: 120, Conflicts: 3},
			{TS: 2, Tenant: "t2", Endpoint: "simulate", Status: 500, TotalUS: 900, Conflicts: 5, BoundChecks: 2},
		},
		Frames: []MetricFrame{
			{TS: 1, Requests: 10, Stages: map[string]StageFrame{"batch_compute": {Count: 4, SumUS: 100}}},
			{TS: 2, Requests: 20, BoundViolations: 0,
				Stages:  map[string]StageFrame{"batch_compute": {Count: 12, SumUS: 1000}},
				Tenants: map[string]TenantFrame{"t1": {Requests: 9}}},
		},
		Decisions: []Decision{{TS: 1, Spec: "color/H=12/M=15", Action: "migrate", From: "color/H=12/M=15", To: "mod/M=15", Reason: "shadow score"}},
		Traces:    []obsv.TraceSnapshot{{ID: "r-1", Endpoint: "color", Tenant: "t1", Mapping: "mod/M=15", Status: 200, TotalUS: 120}},
		Trace: &replay.Trace{Seed: 7, Records: []replay.Record{
			{Path: "/v1/color", Tenant: "t1", Body: []byte(`{"nodes":[1,2,3]}`)},
			{Path: "/v1/simulate", Tenant: "t2", Body: []byte(`{"steps":4}`)},
		}},
	}
}

func TestIncidentRoundTrip(t *testing.T) {
	inc := sampleIncident()
	data, err := EncodeIncident(inc)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeIncident(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inc.Meta, dec.Meta) {
		t.Errorf("meta round-trip:\n got %+v\nwant %+v", dec.Meta, inc.Meta)
	}
	if !reflect.DeepEqual(inc.Events, dec.Events) {
		t.Errorf("events round-trip mismatch")
	}
	if !reflect.DeepEqual(inc.Trace, dec.Trace) {
		t.Errorf("bundled trace round-trip mismatch")
	}
	// Canonical: re-encoding the decoded incident is byte-identical.
	data2, err := EncodeIncident(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("encoding is not canonical: re-encode differs")
	}
}

func TestDecodeIncidentTruncation(t *testing.T) {
	data, err := EncodeIncident(sampleIncident())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(data); i++ {
		if _, err := DecodeIncident(data[:i]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", i, len(data))
		}
	}
}

func TestDecodeIncidentBitFlips(t *testing.T) {
	data, err := EncodeIncident(sampleIncident())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(data); i++ {
		corrupt := append([]byte(nil), data...)
		corrupt[i] ^= 0x80
		if _, err := DecodeIncident(corrupt); err == nil {
			t.Fatalf("bit flip at byte %d decoded without error", i)
		}
	}
}

func TestDecodeIncidentStaleVersion(t *testing.T) {
	data, err := EncodeIncident(sampleIncident())
	if err != nil {
		t.Fatal(err)
	}
	// Bump the version and re-seal the header checksum: a structurally
	// valid file from a future writer must be refused, not misread.
	binary.LittleEndian.PutUint32(data[8:12], incVersion+1)
	binary.LittleEndian.PutUint32(data[16:20], crc32.Checksum(data[:16], incCastagnoli))
	if _, err := DecodeIncident(data); err == nil {
		t.Fatal("stale-version document decoded without error")
	}
}

func TestDecodeIncidentUnknownSectionSkipped(t *testing.T) {
	data, err := EncodeIncident(sampleIncident())
	if err != nil {
		t.Fatal(err)
	}
	// Append a checksummed section with an unknown name and bump the
	// count: an older reader must checksum and skip it.
	name, body := []byte("future"), []byte(`{"new":true}`)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(name)))
	data = append(data, u32[:]...)
	data = append(data, name...)
	binary.LittleEndian.PutUint32(u32[:], uint32(len(body)))
	data = append(data, u32[:]...)
	data = append(data, body...)
	crc := crc32.Checksum(name, incCastagnoli)
	crc = crc32.Update(crc, incCastagnoli, body)
	binary.LittleEndian.PutUint32(u32[:], crc)
	data = append(data, u32[:]...)
	nsec := binary.LittleEndian.Uint32(data[12:16])
	binary.LittleEndian.PutUint32(data[12:16], nsec+1)
	binary.LittleEndian.PutUint32(data[16:20], crc32.Checksum(data[:16], incCastagnoli))

	dec, err := DecodeIncident(data)
	if err != nil {
		t.Fatalf("unknown section must be skipped, got %v", err)
	}
	if len(dec.Events) != 2 {
		t.Errorf("known sections lost around the unknown one: %d events", len(dec.Events))
	}
}

// TestIncidentCrashSafety mirrors the mapstore tmp+rename tests: a kill
// mid-write leaves a stale *.tmp (ignored by the *.pmsinc scan) or a
// partial file that fails its checksums — never a silently-wrong
// incident.
func TestIncidentCrashSafety(t *testing.T) {
	dir := t.TempDir()
	inc := sampleIncident()
	path, err := WriteIncident(dir, inc)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Simulated crash mid-write: a half-written tmp next to the good file.
	stale := filepath.Join(dir, "incident-9999999999999999.pmsinc.tmp")
	if err := os.WriteFile(stale, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*.pmsinc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0] != path {
		t.Fatalf("incident scan picked up crash leftovers: %v", matches)
	}

	// A torn rename-less write (partial final file) must fail decode.
	partial := filepath.Join(dir, "incident-0000000000000001.pmsinc")
	if err := os.WriteFile(partial, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIncident(partial); err == nil {
		t.Fatal("partial incident decoded without error")
	}

	// The intact file still reads.
	got, err := ReadIncident(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.Reason != inc.Meta.Reason || len(got.Events) != len(inc.Events) {
		t.Errorf("intact incident corrupted by neighbors: %+v", got.Meta)
	}
}
