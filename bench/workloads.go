package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/server"
	"repro/internal/tree"
	"repro/internal/workload"
)

// request is one generated call: the bytes sent to pmsd plus the typed
// wire value the oracle and the traced replay work from.
type request struct {
	path   string
	tenant string // X-Tenant value; empty sends no header
	body   []byte
	spec   server.MappingSpec
	// wire is *server.ColorRequest, *server.TemplateCostRequest,
	// *server.RangeRequest or *server.HeapWorkloadRequest.
	wire any
}

// workloadDef is one traffic mix. pmsd receives only the generated
// requests; everything else about a workload lives here.
type workloadDef struct {
	name string
	why  string
	// cacheMB, when set, overrides pmsd's registry byte budget; store
	// gives each pmsd process a fresh disk tier.
	cacheMB int64
	store   bool
	// prime lists the specs that must each answer once before set-up
	// counts as done.
	prime []server.MappingSpec
	// verifyN is how many leading requests of the stream the oracle
	// checks before timing starts.
	verifyN int
	gen     func(seed int64, n int) ([]request, error)
}

// streamLen is how many requests a run generates; the load loop cycles
// through them. 4096 keeps batch-color's bodies near 27 MB.
const streamLen = 4096

var (
	colorSpec = server.MappingSpec{Alg: "color", Levels: 20, M: 4}
	labelSpec = server.MappingSpec{Alg: "labeltree", Levels: 20, Modules: 1024, Policy: "balanced"}
)

// workloads lists the four mixes in the order a set interleaves them.
var workloads = []workloadDef{
	{
		name:    "point-color",
		why:     "singleton /v1/color lookups: HTTP, JSON, the coalescer flush window and pool handoff dominate; the kernel does almost nothing",
		prime:   []server.MappingSpec{colorSpec},
		verifyN: 1000,
		gen:     genPointColor,
	},
	{
		name:    "batch-color",
		why:     "256-node /v1/color batches on COLOR and LABEL-TREE bypass the coalescer; large JSON bodies and the ColorBatch kernels do the work",
		prime:   []server.MappingSpec{colorSpec, labelSpec},
		verifyN: 200,
		gen:     genBatchColor,
	},
	{
		name:    "template-mix",
		why:     "S/P template costs, disjoint composites, range and heap workloads over 8 tenants: domain accounting, bound monitor and simulators",
		prime:   []server.MappingSpec{colorSpec},
		verifyN: 2000,
		gen:     genTemplateMix,
	},
	{
		name:    "spec-churn",
		why:     "48 specs through a 4 MiB registry with a disk tier: materialize, evict, spill and mmap loads, the registry's write path",
		cacheMB: 4,
		store:   true,
		prime:   churnSpecs,
		verifyN: 400,
		gen:     genSpecChurn,
	},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// newRequest encodes wire as the body of a POST to path.
func newRequest(path, tenant string, spec server.MappingSpec, wire any) (request, error) {
	body, err := json.Marshal(wire)
	if err != nil {
		return request{}, err
	}
	return request{path: path, tenant: tenant, body: body, spec: spec, wire: wire}, nil
}

func colorRequest(spec server.MappingSpec, nodes []tree.Node) (request, error) {
	wire := &server.ColorRequest{Mapping: spec}
	if len(nodes) == 1 {
		wire.Node = &server.NodeRef{Index: nodes[0].Index, Level: nodes[0].Level}
	} else {
		for _, n := range nodes {
			wire.Nodes = append(wire.Nodes, server.NodeRef{Index: n.Index, Level: n.Level})
		}
	}
	return newRequest("/v1/color", "", spec, wire)
}

// zipfNodes draws nodes of spec's tree by Zipf-skewed heap index, so the
// root-ward levels are hot.
func zipfNodes(spec server.MappingSpec, seed int64) (func() tree.Node, error) {
	keys, err := workload.NewKeyStream(workload.Zipf, tree.New(spec.Levels).Nodes(), seed)
	if err != nil {
		return nil, err
	}
	return func() tree.Node { return tree.FromHeapIndex(keys.Next()) }, nil
}

func genPointColor(seed int64, n int) ([]request, error) {
	next, err := zipfNodes(colorSpec, seed)
	if err != nil {
		return nil, err
	}
	out := make([]request, n)
	for i := range out {
		if out[i], err = colorRequest(colorSpec, []tree.Node{next()}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// batchNodes is the size of one explicit batch-color request.
const batchNodes = 256

func genBatchColor(seed int64, n int) ([]request, error) {
	next, err := zipfNodes(colorSpec, seed)
	if err != nil {
		return nil, err
	}
	out := make([]request, n)
	nodes := make([]tree.Node, batchNodes)
	for i := range out {
		for j := range nodes {
			nodes[j] = next()
		}
		spec := colorSpec
		if i%2 == 1 {
			spec = labelSpec
		}
		if out[i], err = colorRequest(spec, nodes); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// templateKinds are template-mix's request kinds with their 50/20/20/10
// weights.
var templateKinds = []struct {
	name   string
	weight int
}{{"anchored", 50}, {"composite", 20}, {"range", 20}, {"heap", 10}}

const templateTenants = 8

func genTemplateMix(seed int64, n int) ([]request, error) {
	spec := colorSpec
	t := tree.New(spec.Levels)
	next, err := zipfNodes(spec, seed)
	if err != nil {
		return nil, err
	}
	weights := make([]int, len(templateKinds))
	for i, k := range templateKinds {
		weights[i] = k.weight
	}
	rng := rand.New(rand.NewSource(seed + 1))
	kinds := exactDraws(weights, n, rng)
	tenantOf := exactDraws(workload.ZipfWeights(templateTenants, 1.2), n, rng)
	tenants := workload.TenantNames(templateTenants)
	out := make([]request, n)
	for i := range out {
		tenant := tenants[tenantOf[i]]
		var r request
		switch templateKinds[kinds[i]].name {
		case "anchored":
			r, err = newRequest("/v1/template-cost", tenant, spec, anchoredTemplate(spec, next(), rng))
		case "composite":
			r, err = newRequest("/v1/template-cost", tenant, spec, disjointComposite(spec, t, rng))
		case "range":
			lo := next().HeapIndex()
			hi := min(lo+16+rng.Int63n(48), t.Nodes()-1)
			r, err = newRequest("/v1/range", tenant, spec, &server.RangeRequest{Mapping: spec, Ranges: [][2]int64{{lo, hi}}})
		default:
			r, err = newRequest("/v1/heap/workload", tenant, spec,
				&server.HeapWorkloadRequest{Mapping: spec, N: 64, Dist: "zipf", Seed: seed*1_000_003 + int64(i)})
		}
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// anchoredTemplate costs one elementary instance at node a: a subtree of
// 7 or 15 nodes (lifted root-ward until it fits) or a root-ward path of
// 4 to 16 nodes (cut at the root).
func anchoredTemplate(spec server.MappingSpec, a tree.Node, rng *rand.Rand) *server.TemplateCostRequest {
	if rng.Intn(2) == 0 {
		k := 3 + rng.Intn(2)
		if lift := a.Level + k - spec.Levels; lift > 0 {
			a = a.Ancestor(lift)
		}
		return &server.TemplateCostRequest{Mapping: spec, Kind: "S", Size: int64(1)<<k - 1,
			Anchor: &server.NodeRef{Index: a.Index, Level: a.Level}}
	}
	size := min(int64(a.Level)+1, 4+rng.Int63n(13))
	return &server.TemplateCostRequest{Mapping: spec, Kind: "P", Size: size,
		Anchor: &server.NodeRef{Index: a.Index, Level: a.Level}}
}

// disjointComposite builds an S+P composite pmsd accepts: the subtree
// hangs in the left half of the tree and the path rises from the right
// half, so the two parts never share a node (pmsd answers 400 to
// overlapping parts).
func disjointComposite(spec server.MappingSpec, t tree.Tree, rng *rand.Rand) *server.TemplateCostRequest {
	k := 2 + rng.Intn(3) // subtree of 3, 7 or 15 nodes
	sl := 1 + rng.Intn(spec.Levels-k)
	s := tree.V(rng.Int63n(t.LevelWidth(sl)/2), sl)
	size := 2 + rng.Int63n(15)
	pl := int(size) - 1 + rng.Intn(spec.Levels-int(size)+1)
	pl = max(pl, 1)
	w := t.LevelWidth(pl)
	p := tree.V(w/2+rng.Int63n(w/2), pl)
	return &server.TemplateCostRequest{Mapping: spec, Parts: []server.InstanceRef{
		{Kind: "S", Anchor: server.NodeRef{Index: s.Index, Level: s.Level}, Size: int64(1)<<k - 1},
		{Kind: "P", Anchor: server.NodeRef{Index: p.Index, Level: p.Level}, Size: min(size, int64(pl)+1)},
	}}
}

// churnSpecs are spec-churn's 48 mappings, hottest first. Their
// materialized tables total about 55 MB, over ten times pmsd's 4 MiB
// budget in this workload, so evictions, spills and disk loads all fire.
var churnSpecs = func() []server.MappingSpec {
	var specs []server.MappingSpec
	for _, h := range []int{10, 12, 14, 16, 18, 20, 22} {
		specs = append(specs,
			server.MappingSpec{Alg: "color", Levels: h, M: 3},
			server.MappingSpec{Alg: "color", Levels: h, M: 4},
			server.MappingSpec{Alg: "labeltree", Levels: h, Modules: 63},
			server.MappingSpec{Alg: "labeltree", Levels: h, Modules: 1024, Policy: "balanced"})
	}
	for _, h := range []int{12, 16, 20} {
		specs = append(specs, server.MappingSpec{Alg: "color", Levels: h, M: 5})
	}
	for _, h := range []int{10, 14, 18, 20, 22} {
		specs = append(specs, server.MappingSpec{Alg: "random", Levels: h, Modules: 31, Seed: 7})
	}
	for _, h := range []int{10, 14, 18, 22} {
		specs = append(specs,
			server.MappingSpec{Alg: "mod", Levels: h, Modules: 7},
			server.MappingSpec{Alg: "mod", Levels: h, Modules: 31},
			server.MappingSpec{Alg: "levelcyclic", Levels: h, Modules: 15})
	}
	// A fixed shuffle, not the run's seed, ranks the specs: every seed
	// then sees the same hot set and only the draws differ.
	rng := rand.New(rand.NewSource(48))
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}()

// exactDraws returns n category indices in which category i appears in
// proportion to weights[i] (largest remainders round), shuffled by rng.
// Every seed then sends the same mix of request kinds and specs, and
// only the order and the keys differ between seeds.
func exactDraws(weights []int, n int, rng *rand.Rand) []int {
	total := 0
	for _, w := range weights {
		total += w
	}
	counts := make([]int, len(weights))
	rems := make([]int, len(weights))
	left := n
	for i, w := range weights {
		counts[i] = w * n / total
		rems[i] = w * n % total
		left -= counts[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rems {
			if rems[i] > rems[best] {
				best = i
			}
		}
		counts[best]++
		rems[best] = -1
	}
	out := make([]int, 0, n)
	for i, c := range counts {
		for range c {
			out = append(out, i)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// churnBatch is the size of spec-churn's batch requests.
const churnBatch = 16

func genSpecChurn(seed int64, n int) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	specOf := exactDraws(workload.ZipfWeights(len(churnSpecs), 1.0), n, rng)
	// Two requests in three are singletons. The p50 then falls inside the
	// singletons, which wait out the coalescer's flush window, rather than
	// in the batches' wide spread of registry hits, disk loads and builds.
	batched := exactDraws([]int{2, 1}, n, rng)
	out := make([]request, n)
	for i := range out {
		spec := churnSpecs[specOf[i]]
		space := tree.New(spec.Levels).Nodes()
		nodes := make([]tree.Node, 1+(churnBatch-1)*batched[i])
		for j := range nodes {
			nodes[j] = tree.FromHeapIndex(rng.Int63n(space))
		}
		r, err := colorRequest(spec, nodes)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}
