package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"

	"repro/internal/coloring"
	"repro/internal/heapsim"
	dm "repro/internal/metrics"
	"repro/internal/pms"
	"repro/internal/rangequery"
	"repro/internal/server"
	"repro/internal/template"
	"repro/internal/tree"
	"repro/internal/workload"
)

// answer is what pmsd must reply to one request, computed in-process from
// the same public functions pmsd serves with.
type answer struct {
	resp      any   // *server.ColorResponse, *server.TemplateCostResponse, ...
	conflicts int64 // paper-model conflicts the response reports
	// paths are the heap's per-operation path charges (length, cycles),
	// which pmsd feeds to the bound monitor one by one.
	paths [][2]int64
}

func instanceOf(ir server.InstanceRef) (template.Instance, error) {
	kinds := map[string]template.Kind{"S": template.Subtree, "L": template.Level, "P": template.Path}
	kind, ok := kinds[ir.Kind]
	if !ok {
		return template.Instance{}, fmt.Errorf("unknown template kind %q", ir.Kind)
	}
	return template.Instance{Kind: kind, Anchor: ir.Anchor.Node(), Size: ir.Size}, nil
}

// compositeOf converts a parts list; anchored requests have none.
func compositeOf(req *server.TemplateCostRequest) (template.Composite, error) {
	var comp template.Composite
	for _, pr := range req.Parts {
		inst, err := instanceOf(pr)
		if err != nil {
			return comp, err
		}
		comp.Parts = append(comp.Parts, inst)
	}
	return comp, nil
}

// compute answers one request under mapping m. rec receives the memory
// system's per-module accesses; the zero Recorder records nothing. layer
// runs the call into the layer doing the request's work, so the replay
// can time it as a span.
func compute(r *request, m coloring.Mapping, rec dm.Recorder, layer func(name string, fn func())) (answer, error) {
	switch req := r.wire.(type) {
	case *server.ColorRequest:
		refs := req.Nodes
		if req.Node != nil {
			refs = []server.NodeRef{*req.Node}
		}
		nodes := make([]tree.Node, len(refs))
		for i, nr := range refs {
			nodes[i] = nr.Node()
		}
		resp := &server.ColorResponse{Modules: m.Modules(), Colors: make([]int, len(nodes))}
		layer(spanKernel, func() { coloring.ColorBatch(m, resp.Colors, nodes) })
		return answer{resp: resp}, nil
	case *server.TemplateCostRequest:
		resp := &server.TemplateCostResponse{}
		if req.Anchor != nil {
			inst, err := instanceOf(server.InstanceRef{Kind: req.Kind, Anchor: *req.Anchor, Size: req.Size})
			if err != nil {
				return answer{}, err
			}
			layer(spanTemplate, func() { resp.Conflicts, resp.Items = coloring.InstanceConflicts(m, inst), inst.Size })
		} else {
			comp, err := compositeOf(req)
			if err != nil {
				return answer{}, err
			}
			layer(spanTemplate, func() { resp.Conflicts, resp.Items = coloring.CompositeConflicts(m, comp), comp.Size() })
		}
		return answer{resp: resp, conflicts: int64(resp.Conflicts)}, nil
	case *server.RangeRequest:
		sys := pms.NewSystem(m)
		sys.SetAccounting(rec)
		resp := &server.RangeResponse{Results: make([]server.RangeQueryResult, 0, len(req.Ranges))}
		var err error
		layer(spanRange, func() {
			for _, rg := range req.Ranges {
				var qr rangequery.QueryResult
				if qr, err = rangequery.Run(sys, rg[0], rg[1]); err != nil {
					return
				}
				resp.Results = append(resp.Results, server.RangeQueryResult(qr))
				resp.TotalItems += qr.Items
				resp.TotalCycles += qr.Cycles
				resp.TotalConflicts += int64(qr.Conflicts)
			}
		})
		return answer{resp: resp, conflicts: resp.TotalConflicts}, err
	case *server.HeapWorkloadRequest:
		keys, err := workload.NewKeyStream(workload.Zipf, tree.New(req.Mapping.Levels).Nodes(), req.Seed)
		if err != nil {
			return answer{}, err
		}
		ops, err := workload.HeapOps(workload.DefaultHeapMix(), req.N, keys, req.Seed)
		if err != nil {
			return answer{}, err
		}
		sys := pms.NewSystem(m)
		sys.SetAccounting(rec)
		var a answer
		var res heapsim.WorkloadResult
		layer(spanHeap, func() {
			res, err = heapsim.RunObserved(sys, ops, func(pathLen int, cycles int64) {
				a.paths = append(a.paths, [2]int64{int64(pathLen), cycles})
			})
		})
		if err != nil {
			return answer{}, err
		}
		st := res.Stats
		a.resp = &server.HeapResponse{
			Ops: res.Ops, FinalLen: res.FinalLen, TotalCycles: res.TotalCycles,
			CyclesPerOp: res.CyclesPerOp(), Requests: st.Requests, Conflicts: st.Conflicts,
			Utilization: st.Utilization(m.Modules()),
		}
		a.conflicts = st.Conflicts
		return a, nil
	default:
		return answer{}, fmt.Errorf("no oracle for %T", r.wire)
	}
}

// verdict is the outcome of a verify pass.
type verdict struct {
	mismatches int
	failed     int64 // transport errors and non-200 answers
	conflicts  int64 // model conflicts summed over the checked responses
	first      string
}

// verify checks every response against the oracle. Mappings come from a
// registry of the benchmark's own, large enough never to evict.
func verify(reqs []request, resps []response) (verdict, error) {
	reg := server.NewRegistry(1<<30, &server.Metrics{})
	var v verdict
	for i := range reqs {
		r, got := &reqs[i], resps[i]
		if got.err != nil || got.status != http.StatusOK {
			v.failed++
			v.note(i, fmt.Sprintf("status %d, error %v", got.status, got.err))
			continue
		}
		m, err := reg.Acquire(r.spec)
		if err != nil {
			return v, fmt.Errorf("oracle mapping %s: %w", r.spec.Key(), err)
		}
		want, err := compute(r, m, dm.Recorder{}, func(_ string, fn func()) { fn() })
		if err != nil {
			return v, fmt.Errorf("oracle for request %d: %w", i, err)
		}
		gotResp := reflect.New(reflect.TypeOf(want.resp).Elem()).Interface()
		if err := json.Unmarshal(got.body, gotResp); err != nil {
			v.note(i, fmt.Sprintf("undecodable body: %v", err))
			continue
		}
		if !reflect.DeepEqual(gotResp, want.resp) {
			v.note(i, fmt.Sprintf("%s on %s: got %s", r.path, r.spec.Key(), got.body))
			continue
		}
		v.conflicts += want.conflicts
	}
	return v, nil
}

func (v *verdict) note(i int, msg string) {
	v.mismatches++
	if v.first == "" {
		v.first = fmt.Sprintf("request %d: %s", i, msg)
	}
}
