// Package heapsim implements the binary min-heap application the paper's
// introduction motivates: heap operations (insert, decrease-key,
// delete-min) touch the nodes of a leaf-to-root path — a P-template — so
// the number of parallel memory cycles per operation is governed by how
// the mapping colors paths.
//
// The heap is a real, fully functional array heap laid out on the complete
// binary tree; every operation additionally submits the path it touches to
// a pms.System so workloads can be replayed under different mappings and
// their memory cost compared (experiment E8). Its memory is O(keys held),
// not O(tree): the key array grows with the heap and one path buffer of
// tree height is reused for every charge, so a heap over a 40-level tree
// allocates for its keys, not for its 2^40-1 slots.
package heapsim

import (
	"fmt"

	"repro/internal/pms"
	"repro/internal/tree"
)

// Heap is a bounded binary min-heap instrumented with a parallel memory
// system simulator.
type Heap struct {
	sys  *pms.System
	t    tree.Tree
	keys []int64 // keys[h] for heap index h; only [0,size) valid
	size int64
	obs  PathObserver
	path []tree.Node // the batch every path charge fills and submits
}

// PathObserver sees every P-template path charge: the number of nodes
// in the path and the cycles the memory system spent serving it. The
// server uses it to feed per-family domain accounting and theorem-bound
// checks without heapsim depending on the metrics layer.
type PathObserver func(pathLen int, cycles int64)

// SetObserver installs a path-charge observer (nil to remove).
func (h *Heap) SetObserver(obs PathObserver) { h.obs = obs }

// New builds an empty heap over the mapping's tree, accounting memory
// traffic against sys. It allocates no key storage: keys grow as they
// are inserted, so the heap's memory is O(keys held), not O(tree), while
// Cap stays the tree's node count.
func New(sys *pms.System) *Heap {
	t := sys.Mapping().Tree()
	return &Heap{sys: sys, t: t, path: make([]tree.Node, 0, t.Levels())}
}

// Len returns the number of keys currently stored.
func (h *Heap) Len() int64 { return h.size }

// Cap returns the maximum number of keys the heap can hold.
func (h *Heap) Cap() int64 { return h.t.Nodes() }

// System returns the attached memory system simulator.
func (h *Heap) System() *pms.System { return h.sys }

// fillPath refills the heap's path buffer with tree.PathNodes(n, k): the
// ascending path of k nodes from n. The buffer is reused by the next
// charge, so a pms.System observer sees it only during its call.
func (h *Heap) fillPath(n tree.Node, k int) []tree.Node {
	h.path = h.path[:0]
	for step := 0; step < k; step++ {
		h.path = append(h.path, n.Ancestor(step))
	}
	return h.path
}

// chargePath submits the path from slot idx to the root — the P-template
// instance an operation on slot idx touches — as one parallel batch and
// drains it, returning the cycles consumed.
func (h *Heap) chargePath(idx int64) int64 {
	n := tree.FromHeapIndex(idx)
	nodes := h.fillPath(n, n.Level+1)
	cycles := h.sys.SubmitDrain(nodes)
	if h.obs != nil {
		h.obs(len(nodes), cycles)
	}
	return cycles
}

// Insert adds a key, returning the memory cycles charged, or an error if
// the heap is full.
func (h *Heap) Insert(key int64) (int64, error) {
	if h.size == h.Cap() {
		return 0, fmt.Errorf("heapsim: heap full (%d keys)", h.size)
	}
	idx := h.size
	h.keys = append(h.keys[:idx], key)
	h.size++
	cycles := h.chargePath(idx)
	h.siftUp(idx)
	return cycles, nil
}

// Min returns the smallest key without removing it.
func (h *Heap) Min() (int64, error) {
	if h.size == 0 {
		return 0, fmt.Errorf("heapsim: heap empty")
	}
	return h.keys[0], nil
}

// DeleteMin removes and returns the smallest key and the memory cycles
// charged. The root is replaced by the last slot and sifted down; the
// touched slots lie on one root-to-leaf path, charged as a P-template.
func (h *Heap) DeleteMin() (int64, int64, error) {
	if h.size == 0 {
		return 0, 0, fmt.Errorf("heapsim: heap empty")
	}
	min := h.keys[0]
	h.size--
	h.keys[0] = h.keys[h.size]
	last := h.siftDown(0)
	cycles := h.chargePath(last)
	return min, cycles, nil
}

// DecreaseKey lowers the key at heap slot idx to newKey, returning the
// cycles charged, or an error if the slot or key is invalid.
func (h *Heap) DecreaseKey(idx, newKey int64) (int64, error) {
	if idx < 0 || idx >= h.size {
		return 0, fmt.Errorf("heapsim: slot %d out of range [0,%d)", idx, h.size)
	}
	if newKey > h.keys[idx] {
		return 0, fmt.Errorf("heapsim: new key %d exceeds current %d", newKey, h.keys[idx])
	}
	h.keys[idx] = newKey
	cycles := h.chargePath(idx)
	h.siftUp(idx)
	return cycles, nil
}

// Heapify bulk-loads the given keys with Floyd's bottom-up construction.
// The memory traffic is charged level by level: sifting down all nodes of
// one level touches that level and the ones below it in lock-step, so
// each level's frontier is submitted as one parallel batch (an L-template
// access). The heap must be empty. Returns the total memory cycles.
func (h *Heap) Heapify(keys []int64) (int64, error) {
	if h.size != 0 {
		return 0, fmt.Errorf("heapsim: Heapify requires an empty heap, have %d keys", h.size)
	}
	if int64(len(keys)) > h.Cap() {
		return 0, fmt.Errorf("heapsim: %d keys exceed capacity %d", len(keys), h.Cap())
	}
	h.keys = append(h.keys[:0], keys...)
	h.size = int64(len(keys))
	var cycles int64
	// Load phase: each fully-occupied level is written as one batch.
	for start := int64(0); start < h.size; {
		n := tree.FromHeapIndex(start)
		level := n.Level
		end := start + h.t.LevelWidth(level)
		if end > h.size {
			end = h.size
		}
		batch := make([]tree.Node, 0, end-start)
		for idx := start; idx < end; idx++ {
			batch = append(batch, tree.FromHeapIndex(idx))
		}
		cycles += h.sys.SubmitDrain(batch)
		start = end
	}
	// Sift phase: levels bottom-up; the nodes of one level sift in
	// lock-step, each step touching one frontier batch per depth.
	for idx := h.size/2 - 1; idx >= 0; idx-- {
		last := h.siftDown(idx)
		// Charge the path segment the sift traversed.
		from := tree.FromHeapIndex(idx)
		to := tree.FromHeapIndex(last)
		if to.Level > from.Level {
			cycles += h.sys.SubmitDrain(h.fillPath(to, to.Level-from.Level+1))
		}
	}
	return cycles, h.Verify()
}

// siftUp restores the heap property upward from idx.
func (h *Heap) siftUp(idx int64) {
	for idx > 0 {
		parent := (idx - 1) / 2
		if h.keys[parent] <= h.keys[idx] {
			return
		}
		h.keys[parent], h.keys[idx] = h.keys[idx], h.keys[parent]
		idx = parent
	}
}

// siftDown restores the heap property downward from idx and returns the
// final slot reached.
func (h *Heap) siftDown(idx int64) int64 {
	for {
		left := 2*idx + 1
		if left >= h.size {
			return idx
		}
		smallest := left
		if right := left + 1; right < h.size && h.keys[right] < h.keys[left] {
			smallest = right
		}
		if h.keys[idx] <= h.keys[smallest] {
			return idx
		}
		h.keys[idx], h.keys[smallest] = h.keys[smallest], h.keys[idx]
		idx = smallest
	}
}

// Verify checks the heap invariant over all stored keys.
func (h *Heap) Verify() error {
	for idx := int64(1); idx < h.size; idx++ {
		parent := (idx - 1) / 2
		if h.keys[parent] > h.keys[idx] {
			return fmt.Errorf("heapsim: invariant broken at slot %d (%d > %d)", idx, h.keys[parent], h.keys[idx])
		}
	}
	return nil
}

// WorkloadResult summarizes a replayed operation sequence.
type WorkloadResult struct {
	Ops         int
	TotalCycles int64
	FinalLen    int64 // keys left in the heap after the sequence
	Stats       pms.Stats
}

// CyclesPerOp returns the average memory cycles per operation.
func (w WorkloadResult) CyclesPerOp() float64 {
	if w.Ops == 0 {
		return 0
	}
	return float64(w.TotalCycles) / float64(w.Ops)
}

// Op is one heap operation in a workload.
type Op struct {
	Kind OpKind
	Key  int64 // Insert: key to add; DecreaseKey: new key
	Slot int64 // DecreaseKey: target slot (taken modulo the live size)
}

// OpKind enumerates workload operation types.
type OpKind int

// Workload operation kinds.
const (
	OpInsert OpKind = iota
	OpDeleteMin
	OpDecreaseKey
)

// Run replays a workload on a fresh heap bound to sys, skipping operations
// that are inapplicable (delete on empty, insert on full), and returns the
// aggregate memory cost.
func Run(sys *pms.System, ops []Op) (WorkloadResult, error) {
	return RunObserved(sys, ops, nil)
}

// RunObserved is Run with a path-charge observer installed for the whole
// sequence (nil behaves exactly like Run).
func RunObserved(sys *pms.System, ops []Op, obs PathObserver) (WorkloadResult, error) {
	h := New(sys)
	h.SetObserver(obs)
	// Size the keys once, for every insert the sequence could apply, so
	// that Insert's append never regrows them.
	var inserts int64
	for _, op := range ops {
		if op.Kind == OpInsert {
			inserts++
		}
	}
	h.keys = make([]int64, 0, min(inserts, h.Cap()))
	var res WorkloadResult
	for _, op := range ops {
		var cycles int64
		var err error
		switch op.Kind {
		case OpInsert:
			if h.Len() == h.Cap() {
				continue
			}
			cycles, err = h.Insert(op.Key)
		case OpDeleteMin:
			if h.Len() == 0 {
				continue
			}
			_, cycles, err = h.DeleteMin()
		case OpDecreaseKey:
			if h.Len() == 0 {
				continue
			}
			// Go's % keeps the dividend's sign, so a negative Slot must be
			// normalized into [0, Len) or the keys lookup below panics.
			slot := op.Slot % h.Len()
			if slot < 0 {
				slot += h.Len()
			}
			if h.keys[slot] < op.Key {
				continue
			}
			cycles, err = h.DecreaseKey(slot, op.Key)
		default:
			return res, fmt.Errorf("heapsim: unknown op kind %d", op.Kind)
		}
		if err != nil {
			return res, err
		}
		res.Ops++
		res.TotalCycles += cycles
	}
	res.FinalLen = h.Len()
	res.Stats = sys.Stats()
	return res, h.Verify()
}
