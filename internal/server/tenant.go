// Per-tenant admission and fairness accounting. Multi-tenant traffic
// identifies itself with the X-Tenant header; the server tracks
// requests, rejections and live inflight per tenant and can cap one
// tenant's inflight share below the global admission limit, so a single
// hot tenant saturating its cap still leaves capacity for the tail.
//
// The table is bounded: beyond MaxTenants distinct names, traffic is
// accounted under the "other" bucket (still capped), so label
// cardinality on /metrics cannot be driven unboundedly by clients.
package server

import (
	"sort"
	"sync"
	"sync/atomic"
)

// TenantHeader carries the tenant identity on the wire. It must match
// replay.TenantHeader (compile-time guarded in replaybench.go) so
// recorded traces replay under the same admission accounting.
const TenantHeader = "X-Tenant"

// anonTenant accounts traffic that does not identify itself;
// overflowTenant lumps tenants beyond the table cap.
const (
	anonTenant     = "anon"
	overflowTenant = "other"
)

// tenantCounters is one tenant's admission accounting.
type tenantCounters struct {
	requests atomic.Int64
	rejected atomic.Int64
	inflight atomic.Int64
}

// tenantTable maps tenant name → counters, bounded by max entries.
type tenantTable struct {
	mu  sync.RWMutex
	m   map[string]*tenantCounters
	max int
}

func newTenantTable(max int) *tenantTable {
	return &tenantTable{m: make(map[string]*tenantCounters), max: max}
}

// sanitizeTenant normalizes the wire value into a bounded, label-safe
// name: empty becomes "anon"; names that are too long or carry
// label-hostile characters collapse into "other".
func sanitizeTenant(name string) string {
	if name == "" {
		return anonTenant
	}
	if len(name) > 32 {
		return overflowTenant
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			return overflowTenant
		}
	}
	return name
}

// get returns the counters for a (sanitized) tenant name, creating the
// entry if the table has room and folding into "other" when it does not.
func (tt *tenantTable) get(name string) *tenantCounters {
	tt.mu.RLock()
	tc := tt.m[name]
	tt.mu.RUnlock()
	if tc != nil {
		return tc
	}
	tt.mu.Lock()
	defer tt.mu.Unlock()
	if tc = tt.m[name]; tc != nil {
		return tc
	}
	// Reserve one slot for the overflow bucket itself so it can always
	// be created.
	if name != overflowTenant && len(tt.m) >= tt.max-1 {
		name = overflowTenant
		if tc = tt.m[name]; tc != nil {
			return tc
		}
	}
	tc = &tenantCounters{}
	tt.m[name] = tc
	return tc
}

// TenantSnapshot is one tenant's exported admission counters.
type TenantSnapshot struct {
	Tenant   string `json:"tenant"`
	Requests int64  `json:"requests"`
	Rejected int64  `json:"rejected"`
	Inflight int64  `json:"inflight"`
}

// snapshot exports all tenants sorted by name, so the /metrics tenant
// series come out in a stable order.
func (tt *tenantTable) snapshot() []TenantSnapshot {
	tt.mu.RLock()
	out := make([]TenantSnapshot, 0, len(tt.m))
	for name, tc := range tt.m {
		out = append(out, TenantSnapshot{
			Tenant:   name,
			Requests: tc.requests.Load(),
			Rejected: tc.rejected.Load(),
			Inflight: tc.inflight.Load(),
		})
	}
	tt.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
