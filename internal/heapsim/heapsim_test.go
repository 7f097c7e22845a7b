package heapsim

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/baseline"
	"repro/internal/colormap"
	"repro/internal/pms"
	"repro/internal/tree"
)

func newSys(t *testing.T, levels int) *pms.System {
	t.Helper()
	p, err := colormap.Canonical(levels, 3)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := colormap.Color(p)
	if err != nil {
		t.Fatal(err)
	}
	return pms.NewSystem(arr)
}

func TestInsertDeleteSorted(t *testing.T) {
	sys := newSys(t, 8)
	h := New(sys)
	keys := []int64{5, 3, 8, 1, 9, 2, 7, 4, 6, 0}
	for _, k := range keys {
		if _, err := h.Insert(k); err != nil {
			t.Fatal(err)
		}
		if err := h.Verify(); err != nil {
			t.Fatal(err)
		}
	}
	if h.Len() != int64(len(keys)) {
		t.Fatalf("Len = %d", h.Len())
	}
	var got []int64
	for h.Len() > 0 {
		min, _, err := h.DeleteMin()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, min)
		if err := h.Verify(); err != nil {
			t.Fatal(err)
		}
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Errorf("delete-min order not sorted: %v", got)
	}
	if len(got) != len(keys) {
		t.Errorf("got %d keys back", len(got))
	}
}

func TestMinPeeks(t *testing.T) {
	sys := newSys(t, 6)
	h := New(sys)
	if _, err := h.Min(); err == nil {
		t.Error("Min on empty should fail")
	}
	h.Insert(4)
	h.Insert(2)
	if min, err := h.Min(); err != nil || min != 2 {
		t.Errorf("Min = %d, %v", min, err)
	}
	if h.Len() != 2 {
		t.Error("Min must not remove")
	}
}

func TestDecreaseKey(t *testing.T) {
	sys := newSys(t, 6)
	h := New(sys)
	for _, k := range []int64{10, 20, 30, 40} {
		h.Insert(k)
	}
	// Find the slot holding 40 and decrease it below the min.
	var slot int64 = -1
	for i := int64(0); i < h.Len(); i++ {
		if h.keys[i] == 40 {
			slot = i
		}
	}
	if slot < 0 {
		t.Fatal("40 not found")
	}
	if _, err := h.DecreaseKey(slot, 5); err != nil {
		t.Fatal(err)
	}
	if err := h.Verify(); err != nil {
		t.Fatal(err)
	}
	if min, _ := h.Min(); min != 5 {
		t.Errorf("min = %d, want 5", min)
	}
	// Errors.
	if _, err := h.DecreaseKey(99, 1); err == nil {
		t.Error("bad slot should fail")
	}
	if _, err := h.DecreaseKey(0, 1000); err == nil {
		t.Error("increase should fail")
	}
}

func TestFullAndEmptyErrors(t *testing.T) {
	sys := newSys(t, 6)
	h := New(sys)
	if _, _, err := h.DeleteMin(); err == nil {
		t.Error("DeleteMin on empty should fail")
	}
	for i := int64(0); i < h.Cap(); i++ {
		if _, err := h.Insert(i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.Insert(0); err == nil {
		t.Error("Insert on full should fail")
	}
}

func TestCyclesPositiveAndPathShaped(t *testing.T) {
	sys := newSys(t, 8)
	h := New(sys)
	for i := int64(0); i < 100; i++ {
		cycles, err := h.Insert(i)
		if err != nil {
			t.Fatal(err)
		}
		if cycles < 1 {
			t.Fatalf("insert %d cost %d cycles", i, cycles)
		}
		// A conflict-free mapping serves a path of L nodes in exactly... at
		// least 1 cycle and at most L cycles.
		depth := int64(tree.FromHeapIndex(i).Level + 1)
		if cycles > depth {
			t.Fatalf("insert %d cost %d cycles for path of %d", i, cycles, depth)
		}
	}
}

// Under canonical COLOR, every root path of length ≤ N is conflict-free,
// so each operation costs exactly 1 memory cycle while the heap fits in
// the first N levels.
func TestColorPathsCostOneCycle(t *testing.T) {
	p, err := colormap.Canonical(8, 3) // N = 6: first 6 levels CF
	if err != nil {
		t.Fatal(err)
	}
	arr, err := colormap.Color(p)
	if err != nil {
		t.Fatal(err)
	}
	sys := pms.NewSystem(arr)
	h := New(sys)
	limit := tree.SubtreeSize(6) // keys filling exactly 6 levels
	for i := int64(0); i < limit; i++ {
		cycles, err := h.Insert(i)
		if err != nil {
			t.Fatal(err)
		}
		if cycles != 1 {
			t.Fatalf("insert into slot %d cost %d cycles, want 1 (CF path)", i, cycles)
		}
	}
}

func TestRunWorkloadAgainstMappings(t *testing.T) {
	levels := 9
	p, err := colormap.Canonical(levels, 3)
	if err != nil {
		t.Fatal(err)
	}
	colorArr, err := colormap.Color(p)
	if err != nil {
		t.Fatal(err)
	}
	modMap := baseline.Modulo(tree.New(levels), colorArr.Modules())

	rng := rand.New(rand.NewSource(3))
	var ops []Op
	for i := 0; i < 400; i++ {
		switch rng.Intn(3) {
		case 0, 1:
			ops = append(ops, Op{Kind: OpInsert, Key: rng.Int63n(1000)})
		case 2:
			ops = append(ops, Op{Kind: OpDeleteMin})
		}
	}
	colorRes, err := Run(pms.NewSystem(colorArr), ops)
	if err != nil {
		t.Fatal(err)
	}
	modRes, err := Run(pms.NewSystem(modMap), ops)
	if err != nil {
		t.Fatal(err)
	}
	if colorRes.Ops == 0 || colorRes.Ops != modRes.Ops {
		t.Fatalf("op counts differ: %d vs %d", colorRes.Ops, modRes.Ops)
	}
	// The paper's headline: the structured mapping beats naive interleaving
	// on path-shaped traffic.
	if colorRes.TotalCycles >= modRes.TotalCycles {
		t.Errorf("COLOR %d cycles not better than MOD %d cycles", colorRes.TotalCycles, modRes.TotalCycles)
	}
	if colorRes.CyclesPerOp() <= 0 {
		t.Error("cycles per op should be positive")
	}
}

func TestRunDecreaseKeyWorkload(t *testing.T) {
	sys := newSys(t, 8)
	rng := rand.New(rand.NewSource(9))
	ops := []Op{{Kind: OpInsert, Key: 100}, {Kind: OpInsert, Key: 200}}
	for i := 0; i < 50; i++ {
		ops = append(ops, Op{Kind: OpDecreaseKey, Slot: rng.Int63n(64), Key: 100 - int64(i)})
		ops = append(ops, Op{Kind: OpInsert, Key: rng.Int63n(1000) + 1000})
	}
	res, err := Run(sys, ops)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Error("no ops ran")
	}
}

func TestRunUnknownOp(t *testing.T) {
	sys := newSys(t, 6)
	if _, err := Run(sys, []Op{{Kind: OpKind(42)}}); err == nil {
		t.Error("unknown op should fail")
	}
}

func TestCyclesPerOpZeroOps(t *testing.T) {
	if got := (WorkloadResult{}).CyclesPerOp(); got != 0 {
		t.Errorf("CyclesPerOp = %f", got)
	}
}

func TestRandomizedHeapAgainstReference(t *testing.T) {
	sys := newSys(t, 8)
	h := New(sys)
	rng := rand.New(rand.NewSource(7))
	var ref []int64
	for step := 0; step < 2000; step++ {
		if rng.Intn(2) == 0 && h.Len() < h.Cap() {
			k := rng.Int63n(500)
			if _, err := h.Insert(k); err != nil {
				t.Fatal(err)
			}
			ref = append(ref, k)
		} else if h.Len() > 0 {
			min, _, err := h.DeleteMin()
			if err != nil {
				t.Fatal(err)
			}
			// Reference: smallest in ref.
			minIdx := 0
			for i, v := range ref {
				if v < ref[minIdx] {
					minIdx = i
				}
			}
			if ref[minIdx] != min {
				t.Fatalf("step %d: DeleteMin = %d, reference %d", step, min, ref[minIdx])
			}
			ref = append(ref[:minIdx], ref[minIdx+1:]...)
		}
	}
	if err := h.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestHeapify(t *testing.T) {
	sys := newSys(t, 8)
	h := New(sys)
	rng := rand.New(rand.NewSource(13))
	keys := make([]int64, 200)
	for i := range keys {
		keys[i] = rng.Int63n(10000)
	}
	cycles, err := h.Heapify(keys)
	if err != nil {
		t.Fatal(err)
	}
	if cycles < 1 {
		t.Errorf("cycles %d", cycles)
	}
	if h.Len() != 200 {
		t.Fatalf("Len = %d", h.Len())
	}
	if err := h.Verify(); err != nil {
		t.Fatal(err)
	}
	// Drain in sorted order.
	prev := int64(-1)
	for h.Len() > 0 {
		min, _, err := h.DeleteMin()
		if err != nil {
			t.Fatal(err)
		}
		if min < prev {
			t.Fatalf("out of order: %d after %d", min, prev)
		}
		prev = min
	}
}

func TestHeapifyErrors(t *testing.T) {
	sys := newSys(t, 6)
	h := New(sys)
	h.Insert(1)
	if _, err := h.Heapify([]int64{1, 2}); err == nil {
		t.Error("non-empty heap should fail")
	}
	sys2 := newSys(t, 6)
	h2 := New(sys2)
	big := make([]int64, h2.Cap()+1)
	if _, err := h2.Heapify(big); err == nil {
		t.Error("oversized load should fail")
	}
}

// Heapify is cheaper per key than repeated Insert under the same mapping:
// the classic O(n) vs O(n log n) shows up in memory cycles too.
func TestHeapifyBeatsRepeatedInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	keys := make([]int64, 1500)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 20)
	}
	bulk := New(newSys(t, 11))
	bulkCycles, err := bulk.Heapify(keys)
	if err != nil {
		t.Fatal(err)
	}
	inc := New(newSys(t, 11))
	var incCycles int64
	for _, k := range keys {
		c, err := inc.Insert(k)
		if err != nil {
			t.Fatal(err)
		}
		incCycles += c
	}
	if bulkCycles >= incCycles {
		t.Errorf("Heapify %d cycles not cheaper than %d inserts' %d", bulkCycles, len(keys), incCycles)
	}
}

// A decrease-key aimed at a negative slot must normalize into the live
// heap instead of indexing keys[] with a negative value (Go's % keeps
// the dividend's sign). Regression test for the /v1/heap/run crash path.
func TestRunNegativeSlotDecreaseKey(t *testing.T) {
	ops := []Op{
		{Kind: OpInsert, Key: 10},
		{Kind: OpInsert, Key: 20},
		{Kind: OpInsert, Key: 30},
		{Kind: OpDecreaseKey, Slot: -1, Key: 5},
		{Kind: OpDecreaseKey, Slot: -7, Key: 1},
	}
	res, err := Run(newSys(t, 8), ops)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLen != 3 {
		t.Errorf("FinalLen = %d, want 3", res.FinalLen)
	}
	// -1 mod 3 normalizes to slot 2, -7 to slot 2 again; at least one of
	// the decreases applies (keys are all above the new values).
	if res.Ops < 4 {
		t.Errorf("applied %d ops, want >= 4", res.Ops)
	}
}

// A decrease-key as the very first operation (empty heap) is skipped,
// never a division by zero or a negative index.
func TestRunDecreaseKeyOnEmptyHeap(t *testing.T) {
	ops := []Op{
		{Kind: OpDecreaseKey, Slot: -1, Key: 5},
		{Kind: OpDecreaseKey, Slot: 0, Key: 5},
		{Kind: OpInsert, Key: 10},
	}
	res, err := Run(newSys(t, 8), ops)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 1 || res.FinalLen != 1 {
		t.Errorf("Ops = %d FinalLen = %d, want 1 and 1", res.Ops, res.FinalLen)
	}
}

// A heap over a 40-level tree holds 2^40-1 slots; sizing its keys to
// the tree asked for an 8 TiB block. Memory follows the keys held, so
// a Run there succeeds and Cap still reports the tree's node count.
func TestRunOnFortyLevelTree(t *testing.T) {
	sys := pms.NewSystem(baseline.Modulo(tree.New(40), 7))
	if got, want := New(sys).Cap(), int64(1)<<40-1; got != want {
		t.Fatalf("Cap = %d, want %d", got, want)
	}
	ops := []Op{
		{Kind: OpInsert, Key: 9}, {Kind: OpInsert, Key: 3}, {Kind: OpInsert, Key: 7},
		{Kind: OpDecreaseKey, Slot: 2, Key: 1}, {Kind: OpDeleteMin},
	}
	res, err := Run(sys, ops)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != len(ops) || res.FinalLen != 2 {
		t.Errorf("Ops = %d FinalLen = %d, want %d and 2", res.Ops, res.FinalLen, len(ops))
	}
}

// One 64-op Run at H=20 allocates for its keys and one path, not for
// the tree's 2^20 slots (8 MiB of keys).
func TestRunBytesFollowKeys(t *testing.T) {
	sys := pms.NewSystem(baseline.Modulo(tree.New(20), 15))
	rng := rand.New(rand.NewSource(11))
	ops := make([]Op, 64)
	for i := range ops {
		switch rng.Intn(3) {
		case 0, 1:
			ops[i] = Op{Kind: OpInsert, Key: rng.Int63n(1 << 20)}
		default:
			ops[i] = Op{Kind: OpDeleteMin}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(sys, ops)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no ops ran")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("64-op Run at H=20 allocated %d bytes, want < %d", got, 64<<10)
	}
}

// Every path charge refills one reused buffer, so a pms.System observer
// sees each batch only during its call. An observer that copies them
// must still hold, after the whole Run, the leaf-to-root path of every
// operation's slot: no later charge overwrites an earlier batch.
func TestObservedPathsSurviveBufferReuse(t *testing.T) {
	const levels = 8
	sys := newSys(t, levels)
	var batches [][]tree.Node
	sys.SetObserver(func(batch []tree.Node) {
		batches = append(batches, slices.Clone(batch))
	})
	// Distinct keys, decrease-keys below every live key and no delete
	// on an empty heap, so Run applies every op and each slot is known.
	rng := rand.New(rand.NewSource(17))
	var ops []Op
	live := int64(0)
	for i := 0; i < 120; i++ {
		switch r := rng.Intn(4); {
		case live == 0 || r < 2:
			ops = append(ops, Op{Kind: OpInsert, Key: 1000 + int64(i)})
			live++
		case r == 2:
			ops = append(ops, Op{Kind: OpDecreaseKey, Slot: rng.Int63n(live), Key: -int64(i)})
		default:
			ops = append(ops, Op{Kind: OpDeleteMin})
			live--
		}
	}
	res, err := Run(sys, ops)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != len(ops) || len(batches) != len(ops) {
		t.Fatalf("%d ops applied, %d batches observed, want %d", res.Ops, len(batches), len(ops))
	}

	// A shadow heap names each op's slot: an insert charges the new last
	// slot, a decrease-key its target, a delete-min the slot where the
	// former last key comes to rest.
	shadow := New(newSys(t, levels))
	for i, op := range ops {
		var slot int64
		switch op.Kind {
		case OpInsert:
			slot = shadow.Len()
			shadow.Insert(op.Key)
		case OpDecreaseKey:
			slot = op.Slot
			shadow.DecreaseKey(op.Slot, op.Key)
		case OpDeleteMin:
			moved := shadow.keys[shadow.Len()-1]
			shadow.DeleteMin()
			for idx := int64(0); idx < shadow.Len(); idx++ {
				if shadow.keys[idx] == moved {
					slot = idx
				}
			}
		}
		n := tree.FromHeapIndex(slot)
		if want := tree.PathNodes(n, n.Level+1); !slices.Equal(batches[i], want) {
			t.Fatalf("op %d (%+v): observed batch %v, want the path of slot %d %v", i, op, batches[i], slot, want)
		}
	}
}
