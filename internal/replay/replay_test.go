package replay

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

func sampleTrace() *Trace {
	return &Trace{
		Seed: 42,
		Records: []Record{
			{Path: "/v1/color", Tenant: "alpha", Body: []byte(`{"nodes":[{"index":3,"level":2}]}`)},
			{Path: "/v1/range", Tenant: "", Body: []byte(`{"ranges":[[1,9]]}`)},
			{Path: "/v1/heap/run", Tenant: "beta", Body: []byte{}},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := sampleTrace()
	data := Encode(tr)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Seed != tr.Seed {
		t.Fatalf("seed = %d, want %d", got.Seed, tr.Seed)
	}
	if len(got.Records) != len(tr.Records) {
		t.Fatalf("records = %d, want %d", len(got.Records), len(tr.Records))
	}
	for i, r := range got.Records {
		want := tr.Records[i]
		if r.Path != want.Path || r.Tenant != want.Tenant || !bytes.Equal(r.Body, want.Body) {
			t.Errorf("record %d = %+v, want %+v", i, r, want)
		}
	}
	// Encoding is canonical: re-encoding the decoded trace must be
	// byte-identical.
	if !bytes.Equal(Encode(got), data) {
		t.Fatalf("re-encode is not byte-identical to the original")
	}
}

// A full tape counts further appends as drops, so the trace it saves
// never carries more records than Decode accepts (maxRecords).
func TestTapeCapsAtMaxRecords(t *testing.T) {
	if got := NewTape(1).max; got != maxRecords {
		t.Fatalf("NewTape caps at %d records, want maxRecords %d", got, maxRecords)
	}
	tape := NewTape(42)
	tape.max = 3
	want := sampleTrace().Records
	for i := 0; i < 5; i++ {
		tape.Append(want[i%len(want)])
	}
	tr, dropped := tape.Trace()
	if len(tr.Records) != 3 || dropped != 2 {
		t.Fatalf("kept %d records and dropped %d, want 3 and 2", len(tr.Records), dropped)
	}
	data := Encode(tr)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Seed != 42 || len(got.Records) != 3 {
		t.Fatalf("decoded seed %d with %d records, want 42 and 3", got.Seed, len(got.Records))
	}
	for i, r := range got.Records {
		if r.Path != want[i].Path || r.Tenant != want[i].Tenant || !bytes.Equal(r.Body, want[i].Body) {
			t.Errorf("record %d = %+v, want %+v", i, r, want[i])
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	data := Encode(sampleTrace())

	// Every truncation point must error, never panic.
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("Decode accepted truncation at %d/%d bytes", n, len(data))
		}
	}
	// Every single-bit flip must error: each region of the file is under
	// a CRC or is a validated length/magic/version field.
	for i := 0; i < len(data); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[i] ^= 1 << bit
			if _, err := Decode(mut); err == nil {
				t.Fatalf("Decode accepted bit flip at byte %d bit %d", i, bit)
			}
		}
	}
}

func TestDecodeRejectsOversizedFrame(t *testing.T) {
	data := Encode(&Trace{Seed: 1, Records: []Record{{Path: "/p", Body: []byte("x")}}})
	// Lie in the first record's frame-length prefix: claim a frame far
	// above the cap. Decode must reject it before allocating.
	data[headerSize] = 0xff
	data[headerSize+1] = 0xff
	data[headerSize+2] = 0xff
	data[headerSize+3] = 0x7f
	if _, err := Decode(data); err == nil {
		t.Fatal("Decode accepted a frame length above MaxFrame")
	}
}

func TestSaveLoad(t *testing.T) {
	tr := sampleTrace()
	path := filepath.Join(t.TempDir(), "run.pmstrc")
	if err := tr.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !bytes.Equal(Encode(got), Encode(tr)) {
		t.Fatal("Load round-trip differs from saved trace")
	}
}

func TestReplayDigestDeterministic(t *testing.T) {
	// A handler whose responses depend only on the request stream.
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		fmt.Fprintf(w, "%s:%s", r.URL.Path, body)
	})
	tr := sampleTrace()
	a := Replay(h, tr)
	b := Replay(h, tr)
	if a.Digest == "" || a.Digest != b.Digest {
		t.Fatalf("digests differ: %s vs %s", a.Digest, b.Digest)
	}
	if a.Requests != len(tr.Records) {
		t.Fatalf("requests = %d, want %d", a.Requests, len(tr.Records))
	}
	if a.StatusCounts[http.StatusOK] != int64(len(tr.Records)) {
		t.Fatalf("status counts = %v, want all 200", a.StatusCounts)
	}
	// A different stream must change the digest.
	tr2 := sampleTrace()
	tr2.Records[0].Body = []byte(`{"nodes":[{"index":1,"level":1}]}`)
	if c := Replay(h, tr2); c.Digest == a.Digest {
		t.Fatal("digest did not change with the request stream")
	}
}

func TestReplayRestoresTenantHeader(t *testing.T) {
	var tenants []string
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tenants = append(tenants, r.Header.Get(TenantHeader))
	})
	Replay(h, sampleTrace())
	want := []string{"alpha", "", "beta"}
	if len(tenants) != len(want) {
		t.Fatalf("saw %d tenants, want %d", len(tenants), len(want))
	}
	for i := range want {
		if tenants[i] != want[i] {
			t.Errorf("tenant %d = %q, want %q", i, tenants[i], want[i])
		}
	}
}

// TestSaveFailureRemovesTemp: a Save that cannot rename over its
// destination (here a non-empty directory) fails and leaves no
// <path>.tmp behind.
func TestSaveFailureRemovesTemp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.pmstrc")
	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := sampleTrace().Save(path); err == nil {
		t.Fatal("Save over a non-empty directory succeeded")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("failed Save left its .tmp behind: %v", err)
	}
}
