package flightrec

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden fixtures")

// TestGoldenIncident pins the PMSINC1 layout byte-for-byte: header,
// section framing and per-section CRC-32C of the sample incident. A
// failing test means the format changed, which requires a version bump,
// not a fixture refresh. Regenerate deliberately with:
//
//	go test ./internal/flightrec -run TestGoldenIncident -update
func TestGoldenIncident(t *testing.T) {
	got, err := EncodeIncident(sampleIncident())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "sample.pmsinc")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture (run with -update to generate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding diverged from %s (%d vs %d bytes); an on-disk format change requires a version bump", path, len(got), len(want))
	}
}
