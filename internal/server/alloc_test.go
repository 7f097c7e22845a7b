// Allocation pins for the /v1 request path. testing.AllocsPerRun runs
// one request at a time through the listener's whole handler chain
// (capture middleware, mux, instrument, handler, pool worker) and counts
// every allocation, the harness's own request and recorder included. An
// allocation added to the per-request path fails tier-1 here.
package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
)

// allocCase is one /v1 endpoint with a representative body and its
// pinned allocations per request under default tracing.
type allocCase struct {
	name string
	path string
	body any
	pin  float64
}

func allocCases() []allocCase {
	spec := MappingSpec{Alg: "color", Levels: 10, M: 3}
	batch := make([]NodeRef, 256)
	for i := range batch {
		batch[i] = NodeRef{Index: int64(i), Level: 9}
	}
	ops := []HeapOpRef{{Op: "insert", Key: 5}, {Op: "insert", Key: 3}, {Op: "delete-min"}, {Op: "insert", Key: 9}}
	return []allocCase{
		{"color singleton", "/v1/color", ColorRequest{Mapping: spec, Node: &NodeRef{Index: 5, Level: 3}}, 44},
		{"color batch", "/v1/color", ColorRequest{Mapping: spec, Nodes: batch}, 42},
		{"template-cost", "/v1/template-cost", TemplateCostRequest{Mapping: spec, Kind: "S", Size: 7, Anchor: &NodeRef{Index: 1, Level: 2}}, 50},
		{"simulate", "/v1/simulate", SimulateRequest{Mapping: spec, Batches: [][]int64{{0, 1, 2}, {3, 4}}}, 60},
		{"heap/run", "/v1/heap/run", HeapRunRequest{Mapping: spec, Ops: ops}, 66},
		{"heap/workload", "/v1/heap/workload", HeapWorkloadRequest{Mapping: spec, N: 16, Seed: 1}, 62},
		{"range", "/v1/range", RangeRequest{Mapping: spec, Ranges: [][2]int64{{3, 40}, {100, 180}}}, 83},
	}
}

// allocsPerRequest serves body on path through h, one request per run,
// and returns the mean allocations per request.
func allocsPerRequest(t *testing.T, h http.Handler, path string, body any) float64 {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	status := 0
	n := testing.AllocsPerRun(200, func() {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if status == 0 || rec.Code != http.StatusOK {
			status = rec.Code
		}
	})
	if status != http.StatusOK {
		t.Fatalf("%s answered %d", path, status)
	}
	return n
}

// raceBuild is set by race_test.go under -race, where sync.Pool drops
// entries at random and allocation counts drift.
var raceBuild bool

// TestAllocsPerRequest pins each endpoint's allocations per request
// with default tracing (every request traced, flight recorder on), and
// bounds what tracing adds over an untraced server: the trace lives in
// the pooled request record, so a traced request pays only its
// generated request ID and the echoed header.
func TestAllocsPerRequest(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are not stable under -race")
	}
	traced := New(Config{flightManual: true})
	defer shutdownServer(t, traced)
	untraced := New(Config{flightManual: true, TraceSampleRate: -1})
	defer shutdownServer(t, untraced)
	const maxTraceAllocs = 5
	for _, tc := range allocCases() {
		got := allocsPerRequest(t, traced.httpSrv.Handler, tc.path, tc.body)
		base := allocsPerRequest(t, untraced.httpSrv.Handler, tc.path, tc.body)
		if got > tc.pin {
			t.Errorf("%s: %v allocations per request, pinned at %v", tc.name, got, tc.pin)
		}
		if got-base > maxTraceAllocs {
			t.Errorf("%s: tracing adds %v allocations per request (%v traced, %v untraced), want <= %d",
				tc.name, got-base, got, base, maxTraceAllocs)
		}
	}
}

// bytesPerRequest serves body on path through h, once to warm the
// mapping and the pools and then runs times, and returns the mean bytes
// allocated per request.
func bytesPerRequest(t *testing.T, h http.Handler, path string, body any) uint64 {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	serveOne := func() {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s answered %d: %s", path, rec.Code, rec.Body)
		}
	}
	serveOne()
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		serveOne()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// withMapping returns a copy of a request body with its Mapping field
// set to spec.
func withMapping(body any, spec MappingSpec) any {
	v := reflect.New(reflect.TypeOf(body)).Elem()
	v.Set(reflect.ValueOf(body))
	v.FieldByName("Mapping").Set(reflect.ValueOf(spec))
	return v.Interface()
}

// TestBytesPerRequest bounds the bytes every endpoint allocates per
// request on pmsbench's COLOR mapping, color/H=20/m=4. The count pin
// cannot see one large block: a heap request that sized its keys to
// the tree made a single 8 MiB allocation at H=20.
func TestBytesPerRequest(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are not stable under -race")
	}
	srv := New(Config{flightManual: true})
	defer shutdownServer(t, srv)
	spec := MappingSpec{Alg: "color", Levels: 20, M: 4}
	const maxBytes = 64 << 10
	for _, tc := range allocCases() {
		got := bytesPerRequest(t, srv.httpSrv.Handler, tc.path, withMapping(tc.body, spec))
		t.Logf("%s: %d bytes per request", tc.name, got)
		if got > maxBytes {
			t.Errorf("%s: %d bytes per request on color/H=20/m=4, want <= %d", tc.name, got, maxBytes)
		}
	}
}
