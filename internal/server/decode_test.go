package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/tree"
	"repro/internal/workload"
)

// decodeJSONColor is decodeJSON with decodeColorRequest's signature: the
// reference the scanner is held to.
func decodeJSONColor(w http.ResponseWriter, r *http.Request, limit int64, req *ColorRequest) *apiError {
	return decodeJSON(w, r, limit, req)
}

// randomColorRequest draws a ColorRequest over every registry alg, with
// field values spread across their whole Go range, as a singleton or a
// batch of up to 300 nodes (an empty batch marshals to no nodes key).
func randomColorRequest(rng *rand.Rand) ColorRequest {
	anyInt := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return []int64{0, -1, math.MaxInt64, math.MinInt64}[rng.Intn(4)]
		case 1:
			return rng.Int63n(64)
		default:
			return rng.Int63() - rng.Int63()
		}
	}
	req := ColorRequest{Mapping: MappingSpec{
		Alg:     specAlgs[rng.Intn(len(specAlgs))],
		Levels:  int(anyInt()),
		M:       int(anyInt()),
		Modules: int(anyInt()),
		Seed:    anyInt(),
		Policy:  []string{"", "band-cyclic", "balanced"}[rng.Intn(3)],
	}}
	if rng.Intn(2) == 0 {
		req.Node = &NodeRef{Index: anyInt(), Level: int(anyInt())}
		return req
	}
	req.Nodes = make([]NodeRef, rng.Intn(301))
	for i := range req.Nodes {
		req.Nodes[i] = NodeRef{Index: anyInt(), Level: int(anyInt())}
	}
	return req
}

// TestColorScannerTakesMarshalledBodies: json.Marshal's output for any
// ColorRequest is canonical, so it takes the scanner and decodes to what
// encoding/json decodes. internal/client and pmsbench encode with
// json.Marshal, so every body they send skips encoding/json.
func TestColorScannerTakesMarshalledBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		body, err := json.Marshal(randomColorRequest(rng))
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			body = append(body, '\n')
		}
		var want ColorRequest
		if aerr := decodeJSONColor(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/color", bytes.NewReader(body)), 1<<20, &want); aerr != nil {
			t.Fatalf("encoding/json rejects %s: %v", body, aerr)
		}
		var got ColorRequest
		if !scanColorRequest(body, &got) {
			t.Fatalf("scanner declines marshalled body %s", body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %s: scanner decoded %+v, encoding/json %+v", body, got, want)
		}
	}
}

// batchColorBody is a 256-node request built like pmsbench's batch-color
// workload: color/H=20/m=4 with Zipf-skewed heap indices.
func batchColorBody(tb testing.TB) []byte {
	spec := MappingSpec{Alg: "color", Levels: 20, M: 4}
	keys, err := workload.NewKeyStream(workload.Zipf, tree.New(spec.Levels).Nodes(), 1)
	if err != nil {
		tb.Fatal(err)
	}
	req := ColorRequest{Mapping: spec, Nodes: make([]NodeRef, 256)}
	for i := range req.Nodes {
		n := tree.FromHeapIndex(keys.Next())
		req.Nodes[i] = NodeRef{Index: n.Index, Level: n.Level}
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkColorRequestDecode prices handleColor's decode entry against
// decodeJSON on a batch-color body, each reading the body from the
// in-memory copy the capture middleware hands the handler.
func BenchmarkColorRequestDecode(b *testing.B) {
	body := batchColorBody(b)
	entries := []struct {
		name   string
		decode func(http.ResponseWriter, *http.Request, int64, *ColorRequest) *apiError
	}{
		{"scanner", decodeColorRequest},
		{"encoding_json", decodeJSONColor},
	}
	for _, e := range entries {
		b.Run(e.name, func(b *testing.B) {
			r := httptest.NewRequest(http.MethodPost, "/v1/color", nil)
			r.ContentLength = int64(len(body))
			w := httptest.NewRecorder()
			cb := &capturedBody{}
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cb.Reset(body)
				r.Body = cb
				var req ColorRequest
				if aerr := e.decode(w, r, 1<<20, &req); aerr != nil || len(req.Nodes) != 256 {
					b.Fatalf("decode: %v, %d nodes", aerr, len(req.Nodes))
				}
			}
		})
	}
}
