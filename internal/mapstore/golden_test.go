package mapstore

import (
	"bytes"
	"encoding/binary"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/coloring"
	"repro/internal/tree"
)

// The golden fixtures pin every on-disk layout byte-for-byte: the
// TREEMAP stream format (both the legacy v1 layout and the checksummed
// v2 one), one mapstore entry per mapping kind and the MANIFEST sidecar. A failing golden test
// means the format changed — which requires a version bump, not a
// fixture refresh. Regenerate deliberately with:
//
//	go test ./internal/mapstore -run TestGolden -update

var update = flag.Bool("update", false, "rewrite golden fixtures")

// goldenArray is the deterministic mapping behind the TREEMAP fixtures.
func goldenArray() *coloring.ArrayMapping {
	a := coloring.NewArrayMapping(tree.New(4), 5, "golden")
	for i := range a.Colors {
		a.Colors[i] = int32(i % 5)
	}
	return a
}

// writeV1 reproduces the legacy TREEMAP1 layout (no trailing checksum)
// that PR 1 shipped, so LoadMapping's backward compatibility is pinned
// against real v1 bytes, not against the current writer.
func writeV1(a *coloring.ArrayMapping) []byte {
	var buf bytes.Buffer
	buf.WriteString("TREEMAP1")
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(a.T.Levels()))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(a.M))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(a.AlgName)))
	buf.Write(hdr[:])
	buf.WriteString(a.AlgName)
	var word [4]byte
	for _, c := range a.Colors {
		binary.LittleEndian.PutUint32(word[:], uint32(c))
		buf.Write(word[:])
	}
	return buf.Bytes()
}

// golden compares got against the named fixture, rewriting it under
// -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture (run with -update to generate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoding diverged from the pinned fixture (%d vs %d bytes); an on-disk format change requires a version bump", name, len(got), len(want))
	}
}

func TestGoldenTreemapV2(t *testing.T) {
	a := goldenArray()
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	golden(t, "treemap_v2.bin", buf.Bytes())

	loaded, err := coloring.LoadMapping(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadMapping(v2): %v", err)
	}
	requireSameColors(t, loaded, a)
	if loaded.AlgName != a.AlgName {
		t.Fatalf("name: got %q, want %q", loaded.AlgName, a.AlgName)
	}
}

func TestGoldenTreemapV1StillReadable(t *testing.T) {
	a := goldenArray()
	v1 := writeV1(a)
	golden(t, "treemap_v1.bin", v1)

	loaded, err := coloring.LoadMapping(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("LoadMapping(v1): %v", err)
	}
	requireSameColors(t, loaded, a)

	// v2 is v1 plus the checksum footer; sanity-check that relationship so
	// the two fixtures cannot silently drift apart.
	var v2 bytes.Buffer
	if err := a.Save(&v2); err != nil {
		t.Fatal(err)
	}
	if v2.Len() != len(v1)+4 {
		t.Fatalf("v2 is %d bytes, want v1 (%d) + 4-byte checksum", v2.Len(), len(v1))
	}
}

func TestGoldenEntries(t *testing.T) {
	cases := []struct {
		fixture string
		key     string
		m       coloring.Mapping
	}{
		{"entry_array.pme", "golden/array", testArray(t, 5, 3)},
		{"entry_retriever.pme", "golden/retriever", testRetriever(t)},
		{"entry_labeltree.pme", "golden/labeltree", testLabelTree(t)},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			data, err := encodeMapping(tc.key, tc.m)
			if err != nil {
				t.Fatalf("encodeMapping: %v", err)
			}
			golden(t, tc.fixture, data)

			key, decoded, err := decodeMapping(data, false)
			if err != nil {
				t.Fatalf("decodeMapping: %v", err)
			}
			if key != tc.key {
				t.Fatalf("key: got %q, want %q", key, tc.key)
			}
			requireSameColors(t, decoded, tc.m)
		})
	}
}

// TestGoldenManifest pins the MANIFEST sidecar: magic, version, payload
// length and CRC-32C around the JSON heat and decision records.
func TestGoldenManifest(t *testing.T) {
	man := manifest{
		Entries: []manifestEntry{{
			Key: "golden/retriever", File: "golden_retriever-00000000deadbeef.pme",
			Bytes: 12288, Hits: 7, LastAccess: 1_700_000_000_000_000_000,
		}},
		Decisions: map[string]string{"levelcyclic/H=12/M=15": `{"alg":"color","levels":12,"m":4}`},
	}
	data, err := encodeManifest(man)
	if err != nil {
		t.Fatalf("encodeManifest: %v", err)
	}
	golden(t, "manifest.bin", data)

	got, err := decodeManifest(data)
	if err != nil {
		t.Fatalf("decodeManifest: %v", err)
	}
	if !reflect.DeepEqual(got, man) {
		t.Fatalf("manifest round-trip:\n got %+v\nwant %+v", got, man)
	}
}
