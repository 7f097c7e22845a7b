package replay

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenWorstWindow pins the PMSTRC1 layout byte-for-byte against
// the capture checked in under internal/server/testdata: decoding it and
// encoding it again must reproduce the file. That fixture is recaptured
// only by internal/server's -update-fixtures flag.
func TestGoldenWorstWindow(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "server", "testdata", "worst_window.pmstrc"))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Decode(want)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got := Encode(tr); !bytes.Equal(got, want) {
		t.Fatalf("re-encoding diverged from the fixture (%d vs %d bytes); an on-disk format change requires a version bump", len(got), len(want))
	}
}
