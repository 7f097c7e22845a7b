// Kernel micro-benchmarks: batch retrieval versus the scalar chain
// walk, on the canonical serving shape. Run with
//
//	go test ./internal/colormap -bench ColorBatch -benchtime 2s
//
// On the served path, pmsbench's kernel.ns_per_node (batch-color) reads
// the kernel's cost per node.
package colormap

import (
	"math/rand"
	"testing"

	"repro/internal/tree"
)

func benchRetriever(b *testing.B, levels, m int) (*Retriever, []tree.Node) {
	b.Helper()
	p, err := Canonical(levels, m)
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewRetriever(p)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	nodes := make([]tree.Node, 4096)
	space := tree.SubtreeSize(levels)
	for i := range nodes {
		nodes[i] = tree.FromHeapIndex(rng.Int63n(space))
	}
	return r, nodes
}

func BenchmarkColorBatch(b *testing.B) {
	r, nodes := benchRetriever(b, 20, 4)
	dst := make([]int, len(nodes))
	b.SetBytes(int64(len(nodes)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ColorBatch(dst, nodes)
	}
}

func BenchmarkColorScalar(b *testing.B) {
	r, nodes := benchRetriever(b, 20, 4)
	dst := make([]int, len(nodes))
	b.SetBytes(int64(len(nodes)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, n := range nodes {
			c, err := r.Color(n)
			if err != nil {
				b.Fatal(err)
			}
			dst[j] = c
		}
	}
}
