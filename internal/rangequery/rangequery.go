// Package rangequery implements the B-tree-style application from the
// paper's introduction: in a complete binary search tree, the nodes whose
// keys fall in a query range [lo, hi] decompose into a composite template
// — a set of complete subtrees plus boundary paths of total length at most
// the tree height. Accessing the whole answer in parallel therefore costs
// what the mapping charges for one C-template instance.
//
// Keys are the in-order positions 0 … 2^H-2 of the nodes, so the tree is a
// BST over exactly those keys and every range decomposition is exact.
package rangequery

import (
	"fmt"
	"sort"

	"repro/internal/coloring"
	"repro/internal/pms"
	"repro/internal/template"
	"repro/internal/tree"
)

// Key returns the in-order position of node n in a tree with the given
// number of levels: i·2^(L-j) + 2^(L-j-1) - 1 for n = v(i, j).
func Key(t tree.Tree, n tree.Node) int64 {
	span := int64(1) << uint(t.Levels()-n.Level)
	return n.Index*span + span/2 - 1
}

// NodeForKey returns the node whose in-order position is key.
func NodeForKey(t tree.Tree, key int64) (tree.Node, error) {
	if key < 0 || key >= t.Nodes() {
		return tree.Node{}, fmt.Errorf("rangequery: key %d outside [0,%d)", key, t.Nodes())
	}
	n := t.Root()
	for {
		k := Key(t, n)
		switch {
		case key == k:
			return n, nil
		case key < k:
			n = n.Child(0)
		default:
			n = n.Child(1)
		}
	}
}

// Decompose returns the composite-template decomposition of the key range
// [lo, hi]: maximal complete subtrees fully inside the range plus the
// boundary nodes grouped into maximal ascending paths. The union of the
// parts is exactly the set of nodes with key in [lo, hi], and the parts
// are pairwise disjoint.
func Decompose(t tree.Tree, lo, hi int64) (template.Composite, error) {
	if lo < 0 || hi >= t.Nodes() || lo > hi {
		return template.Composite{}, fmt.Errorf("rangequery: bad range [%d,%d] for %d keys", lo, hi, t.Nodes())
	}
	var comp template.Composite
	singles := make(map[int64]tree.Node) // boundary nodes by heap index

	var walk func(n tree.Node)
	walk = func(n tree.Node) {
		span := int64(1) << uint(t.Levels()-n.Level)
		first := n.Index * span // smallest key in n's subtree
		last := first + span - 2
		if first > hi || last < lo {
			return
		}
		if lo <= first && last <= hi {
			comp.Parts = append(comp.Parts, template.Instance{
				Kind:   template.Subtree,
				Anchor: n,
				Size:   span - 1,
			})
			return
		}
		if k := Key(t, n); lo <= k && k <= hi {
			singles[n.HeapIndex()] = n
		}
		if n.Level+1 < t.Levels() {
			walk(n.Child(0))
			walk(n.Child(1))
		}
	}
	walk(t.Root())

	comp.Parts = append(comp.Parts, groupIntoPaths(singles)...)
	return comp, nil
}

// groupIntoPaths merges boundary nodes into maximal ascending paths: a
// node whose parent is also a boundary node extends the parent's path.
func groupIntoPaths(singles map[int64]tree.Node) []template.Instance {
	if len(singles) == 0 {
		return nil
	}
	// Chain bottoms: nodes none of whose children are in the set.
	nodes := make([]tree.Node, 0, len(singles))
	for _, n := range singles {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].HeapIndex() > nodes[j].HeapIndex() })
	used := make(map[int64]bool, len(singles))
	var parts []template.Instance
	for _, n := range nodes { // deepest first
		if used[n.HeapIndex()] {
			continue
		}
		size := int64(0)
		cur := n
		for {
			used[cur.HeapIndex()] = true
			size++
			if cur.Level == 0 {
				break
			}
			parent := cur.Parent()
			if _, ok := singles[parent.HeapIndex()]; !ok || used[parent.HeapIndex()] {
				break
			}
			cur = parent
		}
		parts = append(parts, template.Instance{Kind: template.Path, Anchor: n, Size: size})
	}
	return parts
}

// QueryResult reports the memory cost of answering one range query.
type QueryResult struct {
	Range     [2]int64
	Items     int64 // nodes accessed (hi - lo + 1)
	Parts     int   // c: elementary parts of the composite
	Subtrees  int   // how many parts are subtrees
	Cycles    int64 // parallel memory cycles to fetch the whole answer
	Conflicts int
}

// Run answers the range query through the memory system and returns the
// measured cost.
func Run(sys *pms.System, lo, hi int64) (QueryResult, error) {
	t := sys.Mapping().Tree()
	comp, err := Decompose(t, lo, hi)
	if err != nil {
		return QueryResult{}, err
	}
	nodes := make([]tree.Node, 0, hi-lo+1) // exactly the range's hi-lo+1 nodes
	comp.Walk(func(n tree.Node) bool {
		nodes = append(nodes, n)
		return true
	})
	res := QueryResult{
		Range: [2]int64{lo, hi},
		Items: int64(len(nodes)),
		Parts: len(comp.Parts),
	}
	for _, p := range comp.Parts {
		if p.Kind == template.Subtree {
			res.Subtrees++
		}
	}
	res.Conflicts = coloring.CompositeConflicts(sys.Mapping(), comp)
	res.Cycles = sys.SubmitDrain(nodes)
	return res, nil
}
