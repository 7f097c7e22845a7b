// End-to-end workload endpoints: the paper's two "real application"
// simulators served over HTTP, driving the full serving hot path
// (registry acquire, per-tenant admission, worker pool, domain
// accounting) instead of the bare in-process simulator.
//
//   - POST /v1/heap/run replays an explicit heap operation sequence
//     (insert / delete-min / decrease-key) on a fresh instrumented heap;
//     every operation charges its leaf-to-root path as a P-template.
//   - POST /v1/heap/workload generates the sequence server-side from a
//     seeded (mix, dist, seed) spec via internal/workload, so a client
//     names a workload instead of shipping 64k operations.
//   - POST /v1/range answers BST range queries [lo, hi]: each range
//     decomposes into a composite template (subtrees + boundary paths)
//     and is fetched through the memory system in one parallel batch.
//
// Every response carries the exact counters the in-process simulator
// would report for the same inputs — the differential oracle tests pin
// endpoint output against heapsim.Run / rangequery.Run on an
// independently materialized mapping.
package server

import (
	"net/http"

	"repro/internal/coloring"
	"repro/internal/heapsim"
	dm "repro/internal/metrics"
	"repro/internal/pms"
	"repro/internal/rangequery"
	"repro/internal/template"
	"repro/internal/tree"
	"repro/internal/workload"
)

// HeapOpRef is one heap operation on the wire.
type HeapOpRef struct {
	// Op is insert | delete-min | decrease-key.
	Op string `json:"op"`
	// Key is the inserted key (insert) or the new key (decrease-key).
	Key int64 `json:"key,omitempty"`
	// Slot targets decrease-key, taken modulo the live heap size.
	Slot int64 `json:"slot,omitempty"`
}

// op converts the wire form, validating the kind and slot.
func (hr HeapOpRef) op() (heapsim.Op, *apiError) {
	var kind heapsim.OpKind
	switch hr.Op {
	case "insert":
		kind = heapsim.OpInsert
	case "delete-min":
		kind = heapsim.OpDeleteMin
	case "decrease-key":
		kind = heapsim.OpDecreaseKey
	default:
		return heapsim.Op{}, badRequest("unknown heap op %q (want insert, delete-min or decrease-key)", hr.Op)
	}
	if hr.Slot < 0 {
		return heapsim.Op{}, badRequest("negative slot %d", hr.Slot)
	}
	return heapsim.Op{Kind: kind, Key: hr.Key, Slot: hr.Slot}, nil
}

// HeapRunRequest replays an explicit operation sequence.
type HeapRunRequest struct {
	Mapping MappingSpec `json:"mapping"`
	Ops     []HeapOpRef `json:"ops"`
}

// HeapMixRef sets the operation proportions of a generated workload.
type HeapMixRef struct {
	Insert      int `json:"insert"`
	DeleteMin   int `json:"delete_min"`
	DecreaseKey int `json:"decrease_key"`
}

// HeapWorkloadRequest generates and replays a seeded workload
// server-side: n operations with the given mix, keys drawn from the
// tree-sized key space with the given distribution. The same
// (mapping, n, mix, dist, seed) always replays the identical sequence.
type HeapWorkloadRequest struct {
	Mapping MappingSpec `json:"mapping"`
	N       int         `json:"n"`
	Mix     *HeapMixRef `json:"mix,omitempty"`  // default 2:1:1
	Dist    string      `json:"dist,omitempty"` // uniform | zipf | sequential (default zipf)
	Seed    int64       `json:"seed"`
}

// HeapResponse summarizes a replayed heap workload; the fields mirror
// heapsim.WorkloadResult plus the engine counters, so the differential
// oracle can compare every one.
type HeapResponse struct {
	Ops         int     `json:"ops"` // operations applied (inapplicable ones skip)
	FinalLen    int64   `json:"final_len"`
	TotalCycles int64   `json:"total_cycles"`
	CyclesPerOp float64 `json:"cycles_per_op"`
	Requests    int64   `json:"requests"`
	Conflicts   int64   `json:"conflicts"`
	Utilization float64 `json:"utilization"`
}

// RangeRequest answers a batch of BST range queries under one mapping.
type RangeRequest struct {
	Mapping MappingSpec `json:"mapping"`
	Ranges  [][2]int64  `json:"ranges"`
}

// RangeQueryResult is one range's cost, mirroring rangequery.QueryResult.
type RangeQueryResult struct {
	Range     [2]int64 `json:"range"`
	Items     int64    `json:"items"`
	Parts     int      `json:"parts"`
	Subtrees  int      `json:"subtrees"`
	Cycles    int64    `json:"cycles"`
	Conflicts int      `json:"conflicts"`
}

// RangeResponse carries per-query results plus totals.
type RangeResponse struct {
	Results        []RangeQueryResult `json:"results"`
	TotalItems     int64              `json:"total_items"`
	TotalCycles    int64              `json:"total_cycles"`
	TotalConflicts int64              `json:"total_conflicts"`
}

// handleHeapRun replays an explicit operation sequence.
func (s *Server) handleHeapRun(w http.ResponseWriter, r *http.Request, rec *request) {
	var req HeapRunRequest
	if aerr := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); aerr != nil {
		writeError(w, aerr)
		return
	}
	spec, ok := s.resolveSpec(w, rec, req.Mapping)
	if !ok {
		return
	}
	if len(req.Ops) == 0 {
		writeError(w, badRequest("no ops"))
		return
	}
	if len(req.Ops) > s.cfg.MaxHeapOps {
		writeError(w, badRequest("%d ops above limit %d", len(req.Ops), s.cfg.MaxHeapOps))
		return
	}
	ops := make([]heapsim.Op, len(req.Ops))
	for i, hr := range req.Ops {
		op, aerr := hr.op()
		if aerr != nil {
			writeError(w, aerr)
			return
		}
		ops[i] = op
	}
	serve(s, w, r, &rec.trace, spec, s.heapCompute(rec.requested, req.Mapping, spec, ops))
}

// handleHeapWorkload generates the sequence server-side, then replays it.
func (s *Server) handleHeapWorkload(w http.ResponseWriter, r *http.Request, rec *request) {
	var req HeapWorkloadRequest
	if aerr := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); aerr != nil {
		writeError(w, aerr)
		return
	}
	spec, ok := s.resolveSpec(w, rec, req.Mapping)
	if !ok {
		return
	}
	if req.N < 1 || req.N > s.cfg.MaxHeapOps {
		writeError(w, badRequest("n %d out of range [1,%d]", req.N, s.cfg.MaxHeapOps))
		return
	}
	var dist workload.Distribution
	switch req.Dist {
	case "", "zipf":
		dist = workload.Zipf
	case "uniform":
		dist = workload.Uniform
	case "sequential":
		dist = workload.Sequential
	default:
		writeError(w, badRequest("unknown dist %q (want uniform, zipf or sequential)", req.Dist))
		return
	}
	mix := workload.DefaultHeapMix()
	if req.Mix != nil {
		mix = workload.HeapMix{Insert: req.Mix.Insert, DeleteMin: req.Mix.DeleteMin, DecreaseKey: req.Mix.DecreaseKey}
	}
	// Key space = tree size: the workload is fully determined by the wire
	// parameters, so a client (or the oracle test) can regenerate it.
	space := tree.New(req.Mapping.Levels).Nodes()
	keys, err := workload.NewKeyStream(dist, space, req.Seed)
	if err != nil {
		writeError(w, badRequest("%v", err))
		return
	}
	ops, err := workload.HeapOps(mix, req.N, keys, req.Seed)
	if err != nil {
		writeError(w, badRequest("%v", err))
		return
	}
	serve(s, w, r, &rec.trace, spec, s.heapCompute(rec.requested, req.Mapping, spec, ops))
}

// heapCompute returns the compute of the two heap endpoints: replay ops on
// an instrumented heap over the served mapping, and feed every
// P-template path charge into the domain accounting layer (family
// histogram + theorem-bound monitor) and the requested spec's shadow
// reservoir.
func (s *Server) heapCompute(reqKey string, reqSpec, spec MappingSpec, ops []heapsim.Op) func(coloring.Mapping) (HeapResponse, error) {
	return func(m coloring.Mapping) (HeapResponse, error) {
		sys := pms.NewSystem(m)
		sys.SetAccounting(s.dom.Recorder())
		var opIdx int64
		obs := func(pathLen int, cycles int64) {
			s.observe(reqKey, spec, dm.BoundQuery{Kind: "P", Size: int64(pathLen)}, int(cycles-1))
			if pathLen > 0 {
				// The reservoir wants instances, not lengths; a sweep of
				// anchors across the path's deepest level reproduces the
				// heap's level-crossing access shape for shadow replay.
				lvl := pathLen - 1
				width := int64(1) << uint(lvl)
				s.sample(reqSpec, template.Instance{
					Kind: template.Path, Anchor: tree.V(opIdx%width, lvl), Size: int64(pathLen),
				})
				opIdx++
			}
		}
		res, err := heapsim.RunObserved(sys, ops, obs)
		if err != nil {
			return HeapResponse{}, err
		}
		st := res.Stats
		s.met.recordSim(st)
		return HeapResponse{
			Ops:         res.Ops,
			FinalLen:    res.FinalLen,
			TotalCycles: res.TotalCycles,
			CyclesPerOp: res.CyclesPerOp(),
			Requests:    st.Requests,
			Conflicts:   st.Conflicts,
			Utilization: st.Utilization(m.Modules()),
		}, nil
	}
}

// handleRange answers BST range queries as composite-template fetches.
func (s *Server) handleRange(w http.ResponseWriter, r *http.Request, rec *request) {
	var req RangeRequest
	if aerr := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); aerr != nil {
		writeError(w, aerr)
		return
	}
	spec, ok := s.resolveSpec(w, rec, req.Mapping)
	if !ok {
		return
	}
	if len(req.Ranges) == 0 {
		writeError(w, badRequest("no ranges"))
		return
	}
	if len(req.Ranges) > s.cfg.MaxRangeQueries {
		writeError(w, badRequest("%d ranges above limit %d", len(req.Ranges), s.cfg.MaxRangeQueries))
		return
	}
	// The key space is the in-order positions 0 … Nodes()-1; each query
	// walks every node in its range, so the total is capped like one
	// simulate trace.
	nodes := tree.New(req.Mapping.Levels).Nodes()
	var items int64
	for _, rg := range req.Ranges {
		if rg[0] < 0 || rg[1] >= nodes || rg[0] > rg[1] {
			writeError(w, badRequest("bad range [%d,%d] for %d keys", rg[0], rg[1], nodes))
			return
		}
		items += rg[1] - rg[0] + 1
		if items > int64(s.cfg.MaxSimItems) {
			writeError(w, badRequest("ranges cover more than %d items", s.cfg.MaxSimItems))
			return
		}
	}
	reqKey := rec.requested
	serve(s, w, r, &rec.trace, spec, func(m coloring.Mapping) (RangeResponse, error) {
		sys := pms.NewSystem(m)
		sys.SetAccounting(s.dom.Recorder())
		resp := RangeResponse{Results: make([]RangeQueryResult, 0, len(req.Ranges))}
		for _, rg := range req.Ranges {
			qr, err := rangequery.Run(sys, rg[0], rg[1])
			if err != nil {
				return RangeResponse{}, err
			}
			// The composite's conflicts are what Theorem 6 bounds:
			// 4·ceil(D/M) + c for D items across c parts.
			s.observe(reqKey, spec, dm.BoundQuery{Kind: "C", Total: qr.Items, Parts: qr.Parts}, qr.Conflicts)
			resp.Results = append(resp.Results, RangeQueryResult{
				Range:     qr.Range,
				Items:     qr.Items,
				Parts:     qr.Parts,
				Subtrees:  qr.Subtrees,
				Cycles:    qr.Cycles,
				Conflicts: qr.Conflicts,
			})
			resp.TotalItems += qr.Items
			resp.TotalCycles += qr.Cycles
			resp.TotalConflicts += int64(qr.Conflicts)
		}
		s.met.recordSim(sys.Stats())
		return resp, nil
	})
}
