package server

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// colorTrapSeeds are bodies on which a hand-written /v1/color decoder can
// part ways with encoding/json: key case folding (even ſ to s), escaped
// keys, a repeated mapping that encoding/json merges into a valid
// request, an empty nodes array beside node (non-nil, so the request is
// rejected), null members, -0 and non-integer numbers, integers at and
// past the int64 edge, invalid UTF-8, and whitespace between every
// token.
var colorTrapSeeds = []string{
	`{"mapping":{"alg":"mod","LEVELS":5,"modules":3},"node":{"index":0,"level":0}}`,
	`{"mapping":{"alg":"random","levels":5,"modules":3,"ſeed":7},"node":{"index":0,"level":0}}`,
	`{"m\u0061pping":{"alg":"mod","levels":5,"modules":3},"node":{"index":0,"level":0}}`,
	`{"mapping":{"alg":"mod","levels":5},"mapping":{"modules":3},"node":{"index":0,"level":0}}`,
	`{"mapping":{"alg":"mod","levels":5,"modules":3},"node":{"index":0,"level":0},"nodes":[]}`,
	`{"mapping":{"alg":"mod","levels":5,"modules":3},"node":null,"nodes":[{"index":0,"level":0}]}`,
	`{"mapping":null,"node":{"index":0,"level":0}}`,
	`{"mapping":{"alg":"mod","levels":5,"modules":3,"policy":null},"node":{"index":0,"level":0}}`,
	`{"mapping":{"alg":"mod","levels":5,"modules":3},"node":{"index":-0,"level":0}}`,
	`{"mapping":{"alg":"mod","levels":5,"modules":3},"node":{"index":1e0,"level":0}}`,
	`{"mapping":{"alg":"mod","levels":5,"modules":3},"node":{"index":1.0,"level":0}}`,
	`{"mapping":{"alg":"mod","levels":5,"modules":3},"nodes":[{"index":9223372036854775807,"level":0},{"index":-9223372036854775808,"level":0}]}`,
	`{"mapping":{"alg":"mod","levels":5,"modules":3},"node":{"index":9223372036854775808,"level":0}}`,
	`{"mapping":{"alg":"mod","levels":5,"modules":3},"node":{"index":-9223372036854775809,"level":0}}`,
	`{"mapping":{"alg":"col` + "\xff" + `or","levels":16,"m":3},"node":{"index":0,"level":0}}`,
	" \t{ \"mapping\" :\n{ \"alg\" : \"mod\" , \"levels\" : 5 ,\r\"modules\" : 3 } , \"nodes\" : [ { \"index\" : 1 , \"level\" : 1 } , { } ] }\n",
}

// FuzzRequestDecoding throws arbitrary bodies at every POST endpoint and
// asserts the serving layer's decode contract: no panic, and anything
// that is not a well-formed, in-bounds request is answered with a 4xx.
// The seed corpus covers the interesting failure classes — malformed
// JSON, unknown fields, overflowing node ids, oversized batches, wrong
// JSON shapes and deep nesting.
func FuzzRequestDecoding(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`null`,
		`[]`,
		`hello`,
		`{"mapping":{"alg":"mod","levels":5,"modules":3},"node":{"index":0,"level":0}}`,
		`{"mapping":{"alg":"color","levels":16,"m":3},"node":{"index":5,"level":3}}`,
		`{"mapping":{"alg":"mod","levels":5,"modules":3},"node":{"index":99999999999999999999999999,"level":1}}`,
		`{"mapping":{"alg":"mod","levels":5,"modules":3},"node":{"index":1e400,"level":0}}`,
		`{"mapping":{"alg":"mod","levels":-5,"modules":3},"node":{"index":0,"level":0}}`,
		`{"mapping":{"alg":"mod","levels":5,"modules":3},"nodes":[` + strings.Repeat(`{"index":0,"level":0},`, 64) + `{"index":0,"level":0}]}`,
		`{"mapping":{"alg":"mod","levels":5,"modules":3},"unknown":1}`,
		`{"mapping":{"alg":"mod","levels":5,"modules":3},"node":{"index":0,"level":0}},`,
		`{"mapping":{"alg":"labeltree","levels":10,"modules":31},"kind":"P","size":4}`,
		`{"mapping":{"alg":"mod","levels":5,"modules":3},"kind":"Q","size":-1}`,
		`{"mapping":{"alg":"mod","levels":5,"modules":3},"parts":[{"kind":"S","anchor":{"index":0,"level":0},"size":7},{"kind":"S","anchor":{"index":0,"level":0},"size":7}]}`,
		`{"mapping":{"alg":"mod","levels":5,"modules":3},"batches":[[0,1,2],[30]]}`,
		`{"mapping":{"alg":"mod","levels":5,"modules":3},"batches":[[9223372036854775807]]}`,
		`{"mapping":{"alg":"mod","levels":5,"modules":3},"batches":[[-1]]}`,
		`{"node":` + strings.Repeat(`{"index":`, 100) + `0` + strings.Repeat(`}`, 100) + `}`,
		`{"mapping":{"alg":"color","levels":8,"m":2},"ops":[{"op":"insert","key":5},{"op":"delete-min"}]}`,
		`{"mapping":{"alg":"color","levels":8,"m":2},"ops":[{"op":"decrease-key","slot":-1}]}`,
		`{"mapping":{"alg":"color","levels":8,"m":2},"ops":[{"op":"insert","key":5},{"op":"decrease-key","slot":-9223372036854775808,"key":1}]}`,
		`{"mapping":{"alg":"color","levels":8,"m":2},"ops":[{"op":"decrease-key","slot":0,"key":1},{"op":"insert","key":5}]}`,
		`{"mapping":{"alg":"color","levels":8,"m":2},"ops":[{"op":"pop"}]}`,
		`{"mapping":{"alg":"color","levels":8,"m":2},"n":4,"dist":"zipf","seed":1}`,
		`{"mapping":{"alg":"color","levels":8,"m":2},"n":-1}`,
		`{"mapping":{"alg":"color","levels":8,"m":2},"n":4,"dist":"pareto"}`,
		`{"mapping":{"alg":"color","levels":8,"m":2},"n":4,"mix":{"insert":0,"delete_min":0,"decrease_key":0}}`,
		`{"mapping":{"alg":"color","levels":8,"m":2},"ranges":[[0,10]]}`,
		`{"mapping":{"alg":"color","levels":8,"m":2},"ranges":[[10,0]]}`,
		`{"mapping":{"alg":"color","levels":8,"m":2},"ranges":[[-1,9223372036854775807]]}`,
		`{"mapping":{"alg":"color","levels":8,"m":2},"ranges":[[0,1],[0,1],[0,1]]}`,
	}
	for _, s := range append(seeds, colorTrapSeeds...) {
		f.Add(s)
	}

	// A small queue keeps fuzz iterations cheap; decoding and validation
	// happen before admission, so limits never mask a decode panic.
	srv := New(Config{Workers: 2, MaxInflight: 8, MaxBodyBytes: 1 << 16, MaxColorNodes: 16, MaxSimBatches: 8, MaxSimItems: 64, MaxHeapOps: 16, MaxRangeQueries: 2})
	ts := httptest.NewServer(srv.Handler())
	f.Cleanup(ts.Close)
	endpoints := []string{"/v1/color", "/v1/template-cost", "/v1/simulate", "/v1/heap/run", "/v1/heap/workload", "/v1/range"}

	f.Fuzz(func(t *testing.T, body string) {
		for _, ep := range endpoints {
			resp, err := ts.Client().Post(ts.URL+ep, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("%s: transport error: %v", ep, err)
			}
			resp.Body.Close()
			switch {
			case resp.StatusCode == http.StatusOK:
				// A fuzz input may legitimately be a valid request.
			case resp.StatusCode >= 400 && resp.StatusCode < 500:
				// Expected: rejected at decode or validation.
			default:
				t.Errorf("%s: status %d for body %q, want 2xx/4xx", ep, resp.StatusCode, body)
			}
		}
	})
}

// FuzzColorDecode is the differential for handleColor's decode entry:
// for every body, at the default body limit and at one that forces the
// over-limit path, with and without a declared Content-Length,
// decodeColorRequest and decodeJSON answer the same status and message,
// and on success decode requests that are reflect.DeepEqual (which
// tells a nil Nodes from an empty one).
func FuzzColorDecode(f *testing.F) {
	seeds := append([]string{
		``,
		`{}`,
		`null`,
		`{"mapping":{"alg":"color","levels":16,"m":3},"node":{"index":5,"level":3}}`,
		`{"mapping":{"alg":"labeltree","levels":16,"modules":31,"policy":"balanced"},"nodes":[{"index":0,"level":0},{"index":7,"level":9}]}`,
		`{"mapping":{"alg":"random","levels":8,"modules":5,"seed":-3},"nodes":[]}`,
		`{"mapping":{"alg":"mod","levels":5,"modules":3},"node":{"index":0,"level":0}} {}`,
		`{"mapping":{"alg":"mod","levels":5,"modules":3},"node":{"index":0,"level":0},"pad":"` + strings.Repeat("x", 64) + `"}`,
	}, colorTrapSeeds...)
	for _, s := range seeds {
		f.Add(s)
	}
	maxBytes := Config{}.withDefaults().MaxBodyBytes
	decode := func(entry func(http.ResponseWriter, *http.Request, int64, *ColorRequest) *apiError,
		body string, limit int64, declared bool) (ColorRequest, *apiError) {
		r := httptest.NewRequest(http.MethodPost, "/v1/color", strings.NewReader(body))
		if !declared {
			r.ContentLength = -1
		}
		var req ColorRequest
		aerr := entry(httptest.NewRecorder(), r, limit, &req)
		return req, aerr
	}

	f.Fuzz(func(t *testing.T, body string) {
		for _, limit := range []int64{maxBytes, int64(len(body) / 2)} {
			for _, declared := range []bool{true, false} {
				got, gotErr := decode(decodeColorRequest, body, limit, declared)
				want, wantErr := decode(decodeJSONColor, body, limit, declared)
				switch {
				case (gotErr == nil) != (wantErr == nil):
					t.Fatalf("limit %d: body %q: entry error %v, encoding/json error %v", limit, body, gotErr, wantErr)
				case gotErr != nil && (gotErr.status != wantErr.status || gotErr.msg != wantErr.msg):
					t.Fatalf("limit %d: body %q: entry %d %q, encoding/json %d %q",
						limit, body, gotErr.status, gotErr.msg, wantErr.status, wantErr.msg)
				case gotErr == nil && !reflect.DeepEqual(got, want):
					t.Fatalf("limit %d: body %q: entry decoded %+v, encoding/json %+v", limit, body, got, want)
				}
			}
		}
	})
}
