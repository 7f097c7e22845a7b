// Package pms simulates the parallel memory system of the paper's model:
// M independent memory modules that can each serve one access per cycle.
// A parallel request for a set of data items (a template instance) is
// served in as many cycles as the most-loaded module receives requests —
// i.e. conflicts + 1 — because same-module accesses serialize while
// different modules proceed concurrently.
//
// The simulator supports both one-shot cost queries (AccessCost) and a
// cycle-accurate queued mode (Submit/Step/Drain) in which batches issued
// over time share module bandwidth, which the application experiments use
// to measure end-to-end makespan and throughput under different mappings.
//
// Two drain paths are provided. Step/Drain retire one item per module per
// cycle and are the reference semantics. SubmitDrain is the hot path used
// by the application simulators: because a full drain of queue state q
// always takes exactly max(q) cycles, serves sum(q) items, and idles
// max(q)·M − sum(q) module-cycles, the same counters can be produced
// arithmetically without stepping. The two paths are bit-identical
// (enforced by differential tests) but SubmitDrain is allocation-free and
// O(M) per batch instead of O(M · depth).
package pms

import (
	"fmt"

	"repro/internal/coloring"
	"repro/internal/metrics"
	"repro/internal/tree"
)

// AccessResult describes one parallel access to a set of nodes.
type AccessResult struct {
	Cycles    int   // serialized cycles = max module load (0 for empty set)
	Conflicts int   // Cycles - 1, the paper's conflict count (0 for empty set)
	Items     int   // number of items accessed
	HotModule int   // a module achieving the maximum load
	HotLoad   int   // accesses landing on HotModule
	PerModule []int // access count per module
}

// AccessCost evaluates a single parallel access of nodes through mapping m.
func AccessCost(m coloring.Mapping, nodes []tree.Node) AccessResult {
	res := AccessResult{PerModule: make([]int, m.Modules()), Items: len(nodes)}
	for _, n := range nodes {
		res.PerModule[m.Color(n)]++
	}
	for mod, load := range res.PerModule {
		if load > res.HotLoad {
			res.HotLoad = load
			res.HotModule = mod
		}
	}
	res.Cycles = res.HotLoad
	if res.Cycles > 0 {
		res.Conflicts = res.Cycles - 1
	}
	return res
}

// System is a cycle-accurate queued simulator: requests enqueue on their
// module's FIFO and each module retires one request per Step.
type System struct {
	mapping  coloring.Mapping
	queues   []int // outstanding requests per module
	pending  int64 // sum of queues, maintained incrementally
	stats    Stats
	observer func([]tree.Node)
	acct     metrics.Recorder

	// Scratch for allocation-free Submit: per-module load of the batch
	// being submitted, plus the list of touched modules so the reset is
	// O(batch) rather than O(M).
	batchLoad    []int32
	batchTouched []int32
}

// SetObserver installs a callback invoked with every submitted batch
// (before queuing). Used by the trace recorder; pass nil to remove.
// The slice is valid only during the call: callers such as heapsim
// reuse it for the next batch, so an observer that keeps a batch must
// copy it (trace.Recorder.Record does).
func (s *System) SetObserver(fn func([]tree.Node)) { s.observer = fn }

// SetAccounting installs a domain-metrics recorder ticked with every
// submitted batch: one Access per touched module with that module's
// batch load, plus the batch conflict count. The zero Recorder disables
// accounting (the default); the cost when disabled is one nil check per
// touched module.
func (s *System) SetAccounting(rec metrics.Recorder) { s.acct = rec }

// Stats accumulates simulation counters.
type Stats struct {
	Cycles    int64 // cycles stepped
	Requests  int64 // total item requests submitted
	Served    int64 // requests retired
	BusyC     int64 // module-cycles spent serving
	MaxQueue  int   // high-water mark of any module queue
	IdleC     int64 // module-cycles spent idle while work was pending elsewhere
	Batches   int64 // number of Submit calls
	Conflicts int64 // sum over batches of (max module load - 1)
	IdleSteps int64 // Step calls on an idle system (no-ops, not counted in Cycles)
}

// NewSystem builds a simulator bound to a mapping.
func NewSystem(m coloring.Mapping) *System {
	modules := m.Modules()
	return &System{
		mapping:      m,
		queues:       make([]int, modules),
		batchLoad:    make([]int32, modules),
		batchTouched: make([]int32, 0, modules),
	}
}

// Modules returns the number of memory modules.
func (s *System) Modules() int { return len(s.queues) }

// Mapping returns the node-to-module mapping in use.
func (s *System) Mapping() coloring.Mapping { return s.mapping }

// Submit enqueues one parallel batch of node accesses. It performs no heap
// allocation: per-batch module loads are tallied in a scratch counter owned
// by the System.
func (s *System) Submit(nodes []tree.Node) {
	if s.observer != nil {
		s.observer(nodes)
	}
	max := int32(0)
	for _, n := range nodes {
		mod := s.mapping.Color(n)
		s.queues[mod]++
		if s.batchLoad[mod] == 0 {
			s.batchTouched = append(s.batchTouched, int32(mod))
		}
		s.batchLoad[mod]++
		if s.batchLoad[mod] > max {
			max = s.batchLoad[mod]
		}
		if s.queues[mod] > s.stats.MaxQueue {
			s.stats.MaxQueue = s.queues[mod]
		}
	}
	for _, mod := range s.batchTouched {
		s.acct.Access(int(mod), int64(s.batchLoad[mod]))
		s.batchLoad[mod] = 0
	}
	s.batchTouched = s.batchTouched[:0]
	if max > 0 {
		s.stats.Conflicts += int64(max - 1)
		s.acct.Batch(int64(max - 1))
	}
	s.pending += int64(len(nodes))
	s.stats.Requests += int64(len(nodes))
	s.stats.Batches++
}

// SubmitDrain enqueues one batch and drains the system to empty, returning
// the cycles the drain consumed. It is equivalent to Submit followed by
// Drain — all Stats counters come out bit-identical — but computes the
// result arithmetically (cycles = max queue depth) instead of looping one
// item per module per Step, making it the fast path for the synchronous
// submit-and-drain schedule used by the application simulators.
func (s *System) SubmitDrain(nodes []tree.Node) int64 {
	s.Submit(nodes)
	return s.drainFast()
}

// drainFast empties every queue in one arithmetic update. A stepped drain
// of queue state q runs for depth = max(q) cycles; every cycle serves one
// item on each module whose queue is still non-empty, so it serves sum(q)
// items in sum(q) busy module-cycles and accumulates
// depth·M − sum(q) idle module-cycles (at least one module serves in every
// one of those cycles, so idle cycles are always counted). The counters
// below reproduce that exactly.
func (s *System) drainFast() int64 {
	depth := 0
	for _, q := range s.queues {
		if q > depth {
			depth = q
		}
	}
	if depth == 0 {
		return 0
	}
	served := s.pending
	for mod := range s.queues {
		s.queues[mod] = 0
	}
	s.pending = 0
	s.stats.Cycles += int64(depth)
	s.stats.Served += served
	s.stats.BusyC += served
	s.stats.IdleC += int64(depth)*int64(len(s.queues)) - served
	return int64(depth)
}

// Step advances the simulation one cycle: every non-empty module retires
// one request. It reports whether any work remains afterwards. Stepping an
// idle system (all queues empty) is a no-op — it does not inflate Cycles
// or deflate Utilization — and is tallied separately in Stats.IdleSteps.
func (s *System) Step() bool {
	if s.pending == 0 {
		s.stats.IdleSteps++
		return false
	}
	s.stats.Cycles++
	pending := false
	idleThisCycle := 0
	for mod := range s.queues {
		if s.queues[mod] == 0 {
			// Nothing to serve this cycle; idle while other modules work.
			idleThisCycle++
			continue
		}
		s.queues[mod]--
		s.pending--
		s.stats.Served++
		s.stats.BusyC++
		if s.queues[mod] > 0 {
			pending = true
		}
	}
	s.stats.IdleC += int64(idleThisCycle)
	return pending
}

// Drain steps until all queues are empty and returns the cycles consumed.
// It uses the reference stepped path; SubmitDrain is the equivalent fast
// path for the submit-then-drain-to-empty schedule.
func (s *System) Drain() int64 {
	start := s.stats.Cycles
	for s.pending > 0 {
		s.Step()
	}
	return s.stats.Cycles - start
}

// Pending returns the number of outstanding requests.
func (s *System) Pending() int64 { return s.pending }

// Stats returns a copy of the accumulated counters.
func (s *System) Stats() Stats { return s.stats }

// Utilization returns served module-cycles divided by total module-cycles,
// in [0, 1]; 0 if no cycle has elapsed.
func (st Stats) Utilization(modules int) float64 {
	if st.Cycles == 0 {
		return 0
	}
	return float64(st.BusyC) / float64(st.Cycles*int64(modules))
}

// String summarizes the stats.
func (st Stats) String() string {
	return fmt.Sprintf("cycles=%d requests=%d batches=%d conflicts=%d maxQueue=%d",
		st.Cycles, st.Requests, st.Batches, st.Conflicts, st.MaxQueue)
}
